"""Instrumentation counters for the sample search.

The paper's performance analysis (Tables 2–4, Figure 13) is entirely a
story about *how many paths exist at each stage*; :class:`SearchStats`
records exactly those numbers plus phase timings so the benchmark
harness can print the corresponding rows.

Since the :mod:`repro.obs` tracing layer landed, the span tree emitted
by :class:`~repro.core.tpw.TPWEngine` is the primary record of a search
— every counter below is also a span attribute — and ``SearchStats`` is
the flat view the bench tables consume.  :meth:`SearchStats.from_span`
rebuilds the full object from a ``tpw.search`` span tree (live or
reloaded from JSON-lines), which is what keeps traces and tables
guaranteed-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is cycle-free,
    from repro.obs.tracer import Span  # but keep stats importable standalone)

#: The search phases, in pipeline order; ``timings`` always carries all
#: of them (0.0 when a phase did not run) so reporting code can index
#: any key without guarding against early-return searches.
PHASES: tuple[str, ...] = (
    "locate", "pairwise", "instantiate", "weave", "rank", "total",
)


def _default_timings() -> dict[str, float]:
    return dict.fromkeys(PHASES, 0.0)


@dataclass
class SearchStats:
    """Counters and timings for one TPW sample search."""

    #: Number of (relation, attribute) occurrence hits per sample index.
    location_hits: dict[int, int] = field(default_factory=dict)
    #: Pairwise mapping paths generated, per key pair (i, j).
    pairwise_mapping_paths: int = 0
    #: Pairwise mapping paths with at least one supporting tuple path.
    pairwise_valid_mapping_paths: int = 0
    #: Pairwise tuple paths materialised (level 2 of the weave).
    pairwise_tuple_paths: int = 0
    #: Tuple paths *generated* by weaving, per level (size -> count);
    #: includes duplicates later removed by canonicalisation.
    woven_per_level: dict[int, int] = field(default_factory=dict)
    #: Distinct tuple paths *kept* per level after deduplication.
    kept_per_level: dict[int, int] = field(default_factory=dict)
    #: Complete tuple paths produced at the final level.
    complete_tuple_paths: int = 0
    #: Valid complete mapping paths extracted (the candidate count).
    valid_complete_mappings: int = 0
    #: Wall-clock seconds per phase; every :data:`PHASES` key is always
    #: present (0.0 for phases an early-return search never reached).
    timings: dict[str, float] = field(default_factory=_default_timings)

    def total_tuple_paths_processed(self) -> int:
        """The "# TP Woven" quantity of Table 4.

        Every tuple path the algorithm touched: the pairwise level plus
        everything generated while weaving.
        """
        return self.pairwise_tuple_paths + sum(self.woven_per_level.values())

    def level_profile(self) -> dict[int, int]:
        """Tuple paths kept at each level (Figure 13's series).

        Level 2 is the pairwise level; the final level holds the
        complete tuple paths.
        """
        profile = {2: self.pairwise_tuple_paths}
        profile.update(sorted(self.kept_per_level.items()))
        return profile

    @classmethod
    def from_span(cls, span: "Span") -> "SearchStats":
        """Derive the stats from a ``tpw.search`` span tree.

        The tree is the one attached to
        :attr:`repro.core.tpw.SearchResult.trace` (or reloaded via
        :func:`repro.obs.export.parse_jsonl`); counters come from span
        attributes, timings from span durations.  JSON round-trips turn
        integer dict keys into strings, so keyed attributes are stored
        stringly and converted back here.

        Raises :class:`ValueError` unless ``span`` is a ``tpw.search``
        span — passing any other tree used to *silently* return
        all-zero stats (easy to hit with a multi-search trace file;
        use :meth:`from_trace` for those).
        """
        if span.name != "tpw.search":
            raise ValueError(
                "SearchStats.from_span needs a tpw.search span, got "
                f"{span.name!r}; use SearchStats.from_trace to select a "
                "search out of a full trace"
            )
        stats = cls()
        stats.timings["total"] = span.duration
        stats.valid_complete_mappings = int(span.attributes.get("candidates", 0))
        for child in span.children:
            phase = child.name.rsplit(".", 1)[-1]
            if phase in stats.timings:
                stats.timings[phase] += child.duration
            attrs = child.attributes
            if child.name == "tpw.locate":
                stats.location_hits = {
                    int(key): count
                    for key, count in attrs.get("hits_by_key", {}).items()
                }
            elif child.name == "tpw.pairwise":
                stats.pairwise_mapping_paths = int(attrs.get("mapping_paths", 0))
            elif child.name == "tpw.instantiate":
                stats.pairwise_valid_mapping_paths = int(
                    attrs.get("valid_mapping_paths", 0)
                )
                if "complete_tuple_paths" in attrs:  # single-column search
                    stats.complete_tuple_paths = int(attrs["complete_tuple_paths"])
            elif child.name == "tpw.weave":
                stats.pairwise_tuple_paths = int(
                    attrs.get("pairwise_tuple_paths", 0)
                )
                stats.complete_tuple_paths = int(
                    attrs.get("complete_tuple_paths", 0)
                )
                for level_span in child.children:
                    if level_span.name != "tpw.weave.level":
                        continue
                    level = int(level_span.attributes.get("level", 0))
                    stats.woven_per_level[level] = int(
                        level_span.attributes.get("woven", 0)
                    )
                    stats.kept_per_level[level] = int(
                        level_span.attributes.get("kept", 0)
                    )
        return stats

    @classmethod
    def from_trace(
        cls, roots: "list[Span] | tuple[Span, ...]", search_id: int | None = None
    ) -> "SearchStats":
        """Derive the stats of one search out of a whole trace.

        ``roots`` is a list of span trees, e.g. ``tracer.finished`` or
        the result of :func:`repro.obs.export.parse_jsonl`; nested
        ``tpw.search`` spans (sessions, benches) are found too.  The
        search is selected by :func:`repro.obs.explain.find_search`.
        """
        from repro.obs.explain import find_search

        return cls.from_span(find_search(roots, search_id))

    def describe(self) -> str:
        """Multi-line summary for logs."""
        lines = [
            f"pairwise mapping paths: {self.pairwise_mapping_paths} "
            f"({self.pairwise_valid_mapping_paths} valid)",
            f"pairwise tuple paths:   {self.pairwise_tuple_paths}",
        ]
        for level, count in sorted(self.kept_per_level.items()):
            generated = self.woven_per_level.get(level, 0)
            lines.append(f"level {level}: kept {count} (woven {generated})")
        lines.append(f"complete tuple paths:   {self.complete_tuple_paths}")
        lines.append(f"valid mappings:         {self.valid_complete_mappings}")
        if self.timings:
            timing = ", ".join(
                f"{phase}={seconds * 1000:.1f}ms"
                for phase, seconds in self.timings.items()
            )
            lines.append(f"timings: {timing}")
        return "\n".join(lines)
