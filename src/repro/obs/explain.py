"""Search explain & provenance: why a candidate survived, where the rest died.

The tracer (:mod:`repro.obs.tracer`) says where a search spent its
time; this module says what it *decided*.  While tracing is enabled,
each pipeline phase writes structured decision records straight onto
the span it runs in:

* per queried pairwise mapping path (``tpw.instantiate.pair``
  ``decisions``) — its depth (number of joins), its support count, and
  whether it was kept or pruned, with the prune reason;
* per PMNJ-truncated walk (``tpw.pairwise`` ``pmnj_frontier``, with
  ``pmnj_frontier_total``);
* per weave level (``tpw.weave.level`` ``fuse``) — candidate in/out
  counts and how many woven paths were ``dominated``: collapsed onto an
  already-kept signature;
* per final mapping (``tpw.rank`` ``scores``) — the full score
  decomposition of Section 4.5.5
  (``match_weight * mean match − join_weight * joins``).

Record lists go through one capped append,
:meth:`~repro.obs.tracer.Span.record`, the same one session pruning
uses for its ``decisions``: it keeps the first
:data:`~repro.obs.tracer.MAX_RECORDS` items and counts the rest in
``<key>_dropped``.  Records are plain JSON-serializable span
attributes, so they survive the JSON-lines round-trip unchanged — a
trace file written with ``--trace-out`` (or by the bench harness) is a
complete provenance log.  With tracing disabled no record is built:
each call site checks the tracer (or its open span) first.

:class:`SearchExplanation` reads the records back out of a
``tpw.search`` span tree (live or reloaded) and renders them as text,
JSON, or a single-file HTML report; the ``mweaver explain`` CLI command
is a thin wrapper around it.

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

#: Reasons a mapping path candidate can be pruned.
PRUNE_REASONS = ("zero-support", "pmnj", "dominated")


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
    #: Per-path decisions of the instantiation queries, by key pair.
    paths: list[dict[str, Any]] = field(default_factory=list)
    #: Walks truncated at the PMNJ bound (capped sample).
    pmnj_frontier: list[dict[str, Any]] = field(default_factory=list)
    #: Total PMNJ-truncated walks (the frontier list is capped).
    pmnj_frontier_total: int = 0
    #: Weave fuse statistics: the pairwise entry count first, then one
    #: per level.
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
        for child in span.children:
            phase = child.name.rsplit(".", 1)[-1]
            explanation.phase_seconds[phase] = (
                explanation.phase_seconds.get(phase, 0.0) + child.duration
            )
            if child.name == "tpw.pairwise":
                explanation.pmnj_frontier = list(
                    child.attributes.get("pmnj_frontier", ())
                )
                explanation.pmnj_frontier_total = int(
                    child.attributes.get("pmnj_frontier_total", 0)
                )
            elif child.name == "tpw.instantiate":
                for pair_span in child.find_all("tpw.instantiate.pair"):
                    explanation.paths.extend(
                        pair_span.attributes.get("decisions", ())
                    )
            elif child.name == "tpw.weave":
                entry = child.attributes.get("pairwise_tuple_paths")
                if entry is not None:
                    explanation.levels.append({"level": 2, "pairwise_in": entry})
                for level_span in child.find_all("tpw.weave.level"):
                    fuse = level_span.attributes.get("fuse")
                    if fuse:
                        explanation.levels.append(dict(fuse))
            elif child.name == "tpw.rank":
                explanation.scores = list(child.attributes.get("scores", ()))
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
