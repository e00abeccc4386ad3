"""Search explain & provenance: why a candidate survived, where the rest died.

The tracer (:mod:`repro.obs.tracer`) says where a search spent its
time; this module says what it *decided*.  A live search carries one
:class:`ExplainRecorder` (created by
:class:`~repro.core.tpw.TPWEngine` whenever tracing is enabled) that
the pipeline phases feed with structured decision records:

* per pairwise mapping path — its generation depth (number of joins),
  its support count, and whether it was kept or pruned, with the prune
  reason (``zero-support``, ``pmnj``);
* per weave level — candidate in/out counts and fuse statistics
  (how many woven paths were ``dominated``: collapsed onto an
  already-kept signature);
* per final mapping — the full score decomposition of Section 4.5.5
  (``match_weight * mean match − join_weight * joins``).

Every record is attached to the existing span tree as plain
JSON-serializable span attributes, so it survives the JSON-lines
round-trip unchanged — a trace file written with ``--trace-out`` (or by
the bench harness) is a complete provenance log.
:class:`SearchExplanation` reads the records back out of a
``tpw.search`` span tree (live or reloaded) and renders them as text,
JSON, or a single-file HTML report; the ``mweaver explain`` CLI command
is a thin wrapper around it.

With tracing disabled the engine hands the phases the shared
:data:`NULL_EXPLAIN` recorder, and every call site guards its record
construction behind ``explain.enabled`` — the disabled path pays one
attribute read, preserving the <5 % overhead budget of
``results/BENCH_trace_overhead.json``.

Prune reasons
-------------

``zero-support``
    The pairwise mapping path's approximate-search query returned no
    tuple path (§4.5.3's early pruning).
``pmnj``
    Candidate generation stopped at the PMNJ join bound: a schema walk
    reached the horizon with unexplored edges, so any mapping path
    beyond it was never enumerated (Algorithm 3's depth limit).
``dominated``
    While weaving, the path's canonical signature duplicates one
    already kept: two weave orders produced the same tuple path.
    Pairwise generation never reports it, because its paths are
    distinct by construction (:mod:`repro.core.pairwise`).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.tracer import Span

#: Default cap per decision list attached to one span.  Explain records
#: are diagnostics, not storage: past the cap only the drop count grows.
MAX_RECORDS = 200

#: Reasons a mapping path candidate can be pruned.
PRUNE_REASONS = ("zero-support", "pmnj", "dominated")


class ExplainRecorder:
    """Collects decision records for one search and pins them on spans.

    One recorder lives for one ``tpw.search``; the engine calls the
    ``annotate_*`` methods while the matching phase span is still open,
    which drains the buffered records into span attributes.
    """

    enabled = True

    def __init__(self, limit: int = MAX_RECORDS) -> None:
        self.limit = limit
        self._pairwise: list[dict[str, Any]] = []
        self._pairwise_dropped = 0
        self._frontier: list[dict[str, Any]] = []
        self._frontier_total = 0
        self._pair_batch: list[dict[str, Any]] = []
        self._pair_dropped = 0
        self._weave_entry: dict[str, Any] | None = None
        self._scores: list[dict[str, Any]] = []
        self._scores_dropped = 0

    # -- pairwise generation (Algorithms 2–4) --------------------------

    def pairwise_decision(
        self,
        pair: tuple[int, int],
        path: "Any",
        decision: str,
        reason: str | None = None,
    ) -> None:
        """One generated pairwise mapping path and the decision on it."""
        if len(self._pairwise) >= self.limit:
            self._pairwise_dropped += 1
            return
        self._pairwise.append(
            {
                "pair": list(pair),
                "path": path.describe(),
                "depth": path.n_joins,
                "decision": decision,
                "reason": reason,
            }
        )

    def pmnj_frontier(self, key: int, walk: "Any") -> None:
        """A walk truncated at the PMNJ bound with unexplored edges."""
        self._frontier_total += 1
        if len(self._frontier) >= self.limit:
            return
        self._frontier.append(
            {
                "key": key,
                "walk": walk.describe(),
                "depth": walk.n_joins,
                "reason": "pmnj",
            }
        )

    def annotate_pairwise(self, span: "Span") -> None:
        """Attach the buffered generation decisions to ``tpw.pairwise``."""
        span.set("decisions", self._pairwise)
        if self._pairwise_dropped:
            span.set("decisions_dropped", self._pairwise_dropped)
        span.set("pmnj_frontier", self._frontier)
        span.set("pmnj_frontier_total", self._frontier_total)

    # -- instantiation (§4.5.3) -----------------------------------------

    def instantiate_decision(
        self, pair: tuple[int, int], path: "Any", support: int
    ) -> None:
        """One pairwise mapping path's query outcome (support count)."""
        if len(self._pair_batch) >= self.limit:
            self._pair_dropped += 1
            return
        self._pair_batch.append(
            {
                "pair": list(pair),
                "path": path.describe(),
                "depth": path.n_joins,
                "support": support,
                "decision": "kept" if support else "pruned",
                "reason": None if support else "zero-support",
            }
        )

    def annotate_instantiate_pair(self, span: "Span") -> None:
        """Attach (and reset) the pair's decisions to its span."""
        span.set("decisions", self._pair_batch)
        if self._pair_dropped:
            span.set("decisions_dropped", self._pair_dropped)
        self._pair_batch = []
        self._pair_dropped = 0

    # -- weaving (Algorithms 5–6) ---------------------------------------

    def weave_entry(self, pairwise_in: int) -> None:
        """The weave's entry: how many pairwise tuple paths it starts from.

        They are distinct by construction, so none is dominated here.
        """
        self._weave_entry = {"pairwise_in": pairwise_in}

    def annotate_weave(self, span: "Span") -> None:
        """Attach the entry count to ``tpw.weave``."""
        if self._weave_entry is not None:
            span.set("fuse", self._weave_entry)

    def level_fuse(
        self,
        span: "Span",
        *,
        level: int,
        bases_in: int,
        woven: int,
        kept: int,
        examples: list[str],
    ) -> None:
        """Attach one weave level's in/out counts and fuse statistics."""
        span.set(
            "fuse",
            {
                "level": level,
                "bases_in": bases_in,
                "woven": woven,
                "kept": kept,
                "dominated": woven - kept,
                "examples": examples,
            },
        )

    # -- ranking (§4.5.5) -----------------------------------------------

    def score(
        self,
        rank: int,
        mapping: "Any",
        *,
        score: float,
        match_mean: float,
        match_term: float,
        join_term: float,
        support: int,
    ) -> None:
        """One ranked candidate's score decomposition."""
        if len(self._scores) >= self.limit:
            self._scores_dropped += 1
            return
        self._scores.append(
            {
                "rank": rank,
                "mapping": mapping.describe(),
                "score": score,
                "match_mean": match_mean,
                "match_term": match_term,
                "join_term": join_term,
                "n_joins": mapping.n_joins,
                "support": support,
            }
        )

    def annotate_rank(self, span: "Span") -> None:
        """Attach the score decompositions to ``tpw.rank``."""
        span.set("scores", self._scores)
        if self._scores_dropped:
            span.set("scores_dropped", self._scores_dropped)
        self._scores = []
        self._scores_dropped = 0


class NullExplainRecorder:
    """The disabled recorder: records nothing, annotates nothing.

    Call sites additionally guard record *construction* behind
    ``explain.enabled``, so with this recorder installed the per-path
    hot loops never build a record at all.
    """

    enabled = False

    def pairwise_decision(self, *args: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def pmnj_frontier(self, *args: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def annotate_pairwise(self, span: Any) -> None:
        """No-op (tracing disabled)."""

    def instantiate_decision(self, *args: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def annotate_instantiate_pair(self, span: Any) -> None:
        """No-op (tracing disabled)."""

    def weave_entry(self, *args: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def annotate_weave(self, span: Any) -> None:
        """No-op (tracing disabled)."""

    def level_fuse(self, span: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def score(self, *args: Any, **kwargs: Any) -> None:
        """No-op (tracing disabled)."""

    def annotate_rank(self, span: Any) -> None:
        """No-op (tracing disabled)."""


#: Shared no-op recorder the engine hands out when tracing is off.
NULL_EXPLAIN = NullExplainRecorder()


# ----------------------------------------------------------------------
# Reading the records back out of a span tree
# ----------------------------------------------------------------------

def find_searches(roots: "list[Span] | tuple[Span, ...]") -> "list[Span]":
    """Every ``tpw.search`` span in ``roots``, walking nested trees.

    Session and service-request traces nest ``tpw.search`` below their
    own roots, so this walks rather than filtering top level only.
    """
    found = []
    for root in roots:
        found.extend(span for span in root.walk() if span.name == "tpw.search")
    return found


def find_search(
    roots: "list[Span] | tuple[Span, ...]", search_id: int | None = None
) -> "Span":
    """The one ``tpw.search`` span in ``roots`` that a report is about.

    With ``search_id`` the matching search is selected; without it the
    trace must contain exactly one search.  Anything else raises
    :class:`ValueError` (naming the available ids when there are
    several) instead of silently picking one.
    """
    searches = find_searches(roots)
    if search_id is not None:
        searches = [
            span
            for span in searches
            if span.attributes.get("search_id") == search_id
        ]
        if not searches:
            raise ValueError(f"no tpw.search span with id {search_id}")
    if not searches:
        raise ValueError("trace contains no tpw.search span")
    if len(searches) > 1:
        ids = [span.attributes.get("search_id") for span in searches]
        raise ValueError(
            f"trace contains {len(searches)} searches (ids {ids}); "
            "pass search_id to pick one"
        )
    return searches[0]


@dataclass
class SearchExplanation:
    """The provenance report for one sample-driven search.

    Built from a ``tpw.search`` span tree — live
    (``result.trace``) or reloaded from a JSON-lines dump — and
    rendered via :meth:`to_text`, :meth:`to_dict` or :meth:`to_html`.
    """

    search_id: int | None = None
    columns: int = 0
    candidates: int = 0
    duration_s: float = 0.0
    #: Phase name -> wall seconds, from the direct child spans.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Merged per-path decisions (generation + instantiation outcome).
    paths: list[dict[str, Any]] = field(default_factory=list)
    #: Walks truncated at the PMNJ bound (capped sample).
    pmnj_frontier: list[dict[str, Any]] = field(default_factory=list)
    #: Total PMNJ-truncated walks (the frontier list is capped).
    pmnj_frontier_total: int = 0
    #: Weave fuse statistics: the entry count first, then one per level.
    levels: list[dict[str, Any]] = field(default_factory=list)
    #: Score decompositions, best rank first.
    scores: list[dict[str, Any]] = field(default_factory=list)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_span(cls, span: "Span") -> "SearchExplanation":
        """Extract the explanation from one ``tpw.search`` span tree."""
        if span.name != "tpw.search":
            raise ValueError(
                f"expected a tpw.search span, got {span.name!r}"
            )
        attrs = span.attributes
        explanation = cls(
            search_id=attrs.get("search_id"),
            columns=int(attrs.get("columns", 0)),
            candidates=int(attrs.get("candidates", 0)),
            duration_s=span.duration,
        )
        merged: dict[tuple[tuple[int, ...], str], dict[str, Any]] = {}

        def merge(record: dict[str, Any]) -> None:
            key = (tuple(record.get("pair", ())), record.get("path", ""))
            existing = merged.get(key)
            if existing is None:
                merged[key] = dict(record)
            else:
                existing.update(record)

        for child in span.children:
            phase = child.name.rsplit(".", 1)[-1]
            explanation.phase_seconds[phase] = (
                explanation.phase_seconds.get(phase, 0.0) + child.duration
            )
            if child.name == "tpw.pairwise":
                for record in child.attributes.get("decisions", ()):
                    merge(record)
                explanation.pmnj_frontier = list(
                    child.attributes.get("pmnj_frontier", ())
                )
                explanation.pmnj_frontier_total = int(
                    child.attributes.get("pmnj_frontier_total", 0)
                )
            elif child.name == "tpw.instantiate":
                for pair_span in child.find_all("tpw.instantiate.pair"):
                    for record in pair_span.attributes.get("decisions", ()):
                        merge(record)
            elif child.name == "tpw.weave":
                fuse = child.attributes.get("fuse")
                if fuse:
                    explanation.levels.append({"level": 2, **fuse})
                for level_span in child.find_all("tpw.weave.level"):
                    fuse = level_span.attributes.get("fuse")
                    if fuse:
                        explanation.levels.append(dict(fuse))
            elif child.name == "tpw.rank":
                explanation.scores = list(child.attributes.get("scores", ()))
        explanation.paths = list(merged.values())
        return explanation

    @classmethod
    def from_trace(
        cls,
        roots: "list[Span] | tuple[Span, ...]",
        search_id: int | None = None,
    ) -> "SearchExplanation":
        """Pick one search out of a trace (see :func:`find_search`)."""
        return cls.from_span(find_search(roots, search_id))

    # -- views ----------------------------------------------------------

    def pruned_paths(self) -> list[dict[str, Any]]:
        """Every path decision with ``decision == "pruned"``."""
        return [path for path in self.paths if path["decision"] == "pruned"]

    def surviving_paths(self) -> list[dict[str, Any]]:
        """Every path decision with ``decision == "kept"``."""
        return [path for path in self.paths if path["decision"] == "kept"]

    def prune_totals(self) -> dict[str, int]:
        """Prune counts by reason, including weave-level domination."""
        totals = dict.fromkeys(PRUNE_REASONS, 0)
        for path in self.pruned_paths():
            reason = path.get("reason")
            if reason in totals:
                totals[reason] += 1
        totals["pmnj"] += self.pmnj_frontier_total
        totals["dominated"] += sum(
            int(level.get("dominated", 0)) for level in self.levels
        )
        return totals

    # -- rendering ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The whole explanation as one JSON-serializable object."""
        return {
            "search": {
                "search_id": self.search_id,
                "columns": self.columns,
                "candidates": self.candidates,
                "duration_s": self.duration_s,
                "phase_seconds": self.phase_seconds,
            },
            "paths": self.paths,
            "pmnj_frontier": self.pmnj_frontier,
            "pmnj_frontier_total": self.pmnj_frontier_total,
            "levels": self.levels,
            "scores": self.scores,
            "prune_totals": self.prune_totals(),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        """Human-readable report (the ``mweaver explain`` default)."""
        identity = f" #{self.search_id}" if self.search_id is not None else ""
        lines = [
            f"search{identity}: {self.columns} columns, "
            f"{self.candidates} candidates, {self.duration_s * 1000:.1f}ms",
        ]
        if self.phase_seconds:
            lines.append(
                "phases: "
                + "  ".join(
                    f"{phase}={seconds * 1000:.1f}ms"
                    for phase, seconds in self.phase_seconds.items()
                )
            )
        totals = self.prune_totals()
        lines.append(
            "pruning: "
            + "  ".join(f"{reason}={count}" for reason, count in totals.items())
        )
        if self.paths:
            lines.append("")
            lines.append(
                f"mapping path decisions ({len(self.surviving_paths())} kept, "
                f"{len(self.pruned_paths())} pruned):"
            )
            for path in self.paths:
                verdict = path["decision"]
                if path.get("reason"):
                    verdict += f" ({path['reason']})"
                support = path.get("support")
                supported = f" support={support}" if support is not None else ""
                lines.append(
                    f"  [pair {'-'.join(str(k) for k in path.get('pair', ()))}] "
                    f"{verdict}{supported} joins={path.get('depth', '?')}  "
                    f"{path.get('path', '')}"
                )
        if self.pmnj_frontier:
            lines.append("")
            lines.append(
                f"PMNJ-bounded walks ({self.pmnj_frontier_total} total, "
                f"showing {len(self.pmnj_frontier)}):"
            )
            for record in self.pmnj_frontier:
                lines.append(
                    f"  key {record['key']} stopped at {record['depth']} "
                    f"joins: {record['walk']}"
                )
        if self.levels:
            lines.append("")
            lines.append("weave levels (in / woven / kept / dominated):")
            for level in self.levels:
                if "bases_in" in level:
                    lines.append(
                        f"  level {level['level']}: in={level['bases_in']} "
                        f"woven={level['woven']} kept={level['kept']} "
                        f"dominated={level['dominated']}"
                    )
                else:  # the entry pseudo-level
                    lines.append(
                        f"  level {level['level']} (pairwise): "
                        f"in={level['pairwise_in']}"
                    )
        if self.scores:
            lines.append("")
            lines.append("score decomposition (match_term - join_term):")
            for score in self.scores:
                lines.append(
                    f"  #{score['rank']} score={score['score']:.3f} = "
                    f"{score['match_term']:.3f} - {score['join_term']:.3f} "
                    f"(match {score['match_mean']:.3f}, "
                    f"{score['n_joins']} joins, "
                    f"support {score['support']})  {score['mapping']}"
                )
        return "\n".join(lines)

    def to_html(self) -> str:
        """A single-file HTML report (no external assets)."""

        def esc(value: Any) -> str:
            return html.escape(str(value))

        def table(headers: list[str], rows: list[list[Any]]) -> str:
            head = "".join(f"<th>{esc(h)}</th>" for h in headers)
            body = "".join(
                "<tr>" + "".join(f"<td>{esc(v)}</td>" for v in row) + "</tr>"
                for row in rows
            )
            return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"

        totals = self.prune_totals()
        sections = [
            "<h1>Search explanation"
            + (f" #{esc(self.search_id)}" if self.search_id is not None else "")
            + "</h1>",
            f"<p>{self.columns} columns &middot; {self.candidates} candidates "
            f"&middot; {self.duration_s * 1000:.1f}ms</p>",
            "<h2>Pruning totals</h2>",
            table(
                ["reason", "pruned"],
                [[reason, count] for reason, count in totals.items()],
            ),
        ]
        if self.paths:
            sections.append("<h2>Mapping path decisions</h2>")
            sections.append(
                table(
                    ["pair", "decision", "reason", "support", "joins", "path"],
                    [
                        [
                            "-".join(str(k) for k in path.get("pair", ())),
                            path["decision"],
                            path.get("reason") or "",
                            path.get("support", ""),
                            path.get("depth", ""),
                            path.get("path", ""),
                        ]
                        for path in self.paths
                    ],
                )
            )
        if self.pmnj_frontier:
            sections.append(
                f"<h2>PMNJ-bounded walks ({self.pmnj_frontier_total})</h2>"
            )
            sections.append(
                table(
                    ["key", "depth", "walk"],
                    [
                        [record["key"], record["depth"], record["walk"]]
                        for record in self.pmnj_frontier
                    ],
                )
            )
        if self.levels:
            sections.append("<h2>Weave levels</h2>")
            sections.append(
                table(
                    ["level", "in", "woven", "kept", "dominated"],
                    [
                        [
                            level.get("level", ""),
                            level.get("bases_in", level.get("pairwise_in", "")),
                            level.get("woven", ""),
                            level.get("kept", ""),
                            level.get("dominated", ""),
                        ]
                        for level in self.levels
                    ],
                )
            )
        if self.scores:
            sections.append("<h2>Score decomposition</h2>")
            sections.append(
                table(
                    ["rank", "score", "match term", "join term",
                     "match mean", "joins", "support", "mapping"],
                    [
                        [
                            score["rank"],
                            f"{score['score']:.3f}",
                            f"{score['match_term']:.3f}",
                            f"{score['join_term']:.3f}",
                            f"{score['match_mean']:.3f}",
                            score["n_joins"],
                            score["support"],
                            score["mapping"],
                        ]
                        for score in self.scores
                    ],
                )
            )
        style = (
            "body{font:14px/1.4 system-ui,sans-serif;margin:2em;color:#222}"
            "table{border-collapse:collapse;margin:0.5em 0}"
            "th,td{border:1px solid #ccc;padding:2px 8px;text-align:left;"
            "font-variant-numeric:tabular-nums}"
            "th{background:#f0f0f0}h1,h2{font-weight:600}"
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>repro explain</title><style>{style}</style></head>"
            "<body>" + "".join(sections) + "</body></html>"
        )
