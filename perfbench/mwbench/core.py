"""In-process flows over ``MappingSession`` and the core-layer attribution.

A flow feeds cells to one :class:`~repro.core.session.MappingSession`
and times every ``input`` call.  With attribution on, the benchmark
also calls the core's public phase functions itself on the same inputs
-- the five TPW phases for the search, ``prune_by_attribute`` and
``prune_by_structure`` for each prune -- timing each, and checks that
the result equals what the session produced.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass, field

from repro.core.instantiate import create_pairwise_tuple_paths
from repro.core.location import build_location_map
from repro.core.mapping_path import MappingPath
from repro.core.pairwise import count_pairwise_paths, generate_pairwise_mapping_paths
from repro.core.pruning import prune_by_attribute, prune_by_structure
from repro.core.ranking import rank_mappings
from repro.core.session import MappingSession
from repro.core.stats import SearchStats
from repro.core.weave import weave_complete_tuple_paths

from mwbench import checks

#: Search phases, in pipeline order.
PHASES = ("locate", "pairwise", "instantiate", "weave", "rank")

Cell = tuple[int, int, str]


@dataclass
class FlowTimes:
    """What one flow measured."""

    outcome: str = ""
    samples: int = 0
    #: Seconds in program calls (session construction and inputs).
    program_s: float = 0.0
    search_s: list[float] = field(default_factory=list)
    prune_s: list[float] = field(default_factory=list)
    input_s: list[float] = field(default_factory=list)


@dataclass
class CoreAttribution:
    """Phase-by-phase core timings and work counts, summed over flows."""

    searches: int = 0
    session_search_s: float = 0.0
    traced_search_s: float = 0.0
    phase_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    pairwise_paths: int = 0
    valid_pairwise_paths: int = 0
    pairwise_tuple_paths: int = 0
    complete_tuple_paths: int = 0
    candidates: int = 0
    prunes: int = 0
    prune_attribute_s: float = 0.0
    prune_structure_s: float = 0.0
    prune_before: int = 0
    prune_kept: int = 0

    def traced_search(self, session: MappingSession, session_s: float) -> None:
        """Re-run the session's last search phase by phase and compare."""
        engine = session.engine
        result = session.search_result
        samples = result.sample_tuple
        stats = SearchStats()
        marks = [time.perf_counter()]
        location_map = build_location_map(engine.db, samples, engine.model)
        marks.append(time.perf_counter())
        pmpm = generate_pairwise_mapping_paths(
            engine.graph, location_map, engine.config
        )
        marks.append(time.perf_counter())
        ptpm, valid = create_pairwise_tuple_paths(
            engine.db, pmpm, samples, engine.model, engine.config
        )
        marks.append(time.perf_counter())
        complete = weave_complete_tuple_paths(
            ptpm, len(samples), engine.config, stats
        )
        marks.append(time.perf_counter())
        ranked = rank_mappings(
            engine.db, complete, samples, engine.model, engine.config.ranking
        )
        marks.append(time.perf_counter())
        checks.check_same_candidates(
            [_ranked_key(candidate) for candidate in ranked],
            [_ranked_key(candidate) for candidate in result.candidates],
            what="search",
        )
        for phase, start, end in zip(PHASES, marks, marks[1:]):
            self.phase_s[phase] += end - start
        self.searches += 1
        self.session_search_s += session_s
        self.traced_search_s += marks[-1] - marks[0]
        self.pairwise_paths += count_pairwise_paths(pmpm)
        self.valid_pairwise_paths += valid
        self.pairwise_tuple_paths += stats.pairwise_tuple_paths
        self.complete_tuple_paths += len(complete)
        self.candidates += len(ranked)

    def traced_prune(
        self, session: MappingSession, before: list, cell: Cell
    ) -> None:
        """Re-run one prune through the pruning functions and compare."""
        row, column, value = cell
        engine = session.engine
        started = time.perf_counter()
        kept = prune_by_attribute(
            engine.db, before, column, value.strip(), engine.model
        )
        after_attribute = time.perf_counter()
        row_samples = session.spreadsheet.row_samples(row)
        if len(row_samples) >= 2:
            kept = prune_by_structure(
                engine.db, kept, row_samples, engine.model
            )
        ended = time.perf_counter()
        checks.check_same_candidates(
            [mapping.signature() for mapping in kept],
            [mapping.signature() for mapping in session.candidate_mappings],
            what="prune",
        )
        self.prunes += 1
        self.prune_attribute_s += after_attribute - started
        self.prune_structure_s += ended - after_attribute
        self.prune_before += len(before)
        self.prune_kept += len(kept)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The ``core.*`` per-layer metrics (means per search / prune)."""
        n = max(self.searches, 1)
        phase_ms = {
            phase: seconds * 1000 / n for phase, seconds in self.phase_s.items()
        }
        session_ms = self.session_search_s * 1000 / n
        out = {
            f"core.{phase}_ms": (value, "ms") for phase, value in phase_ms.items()
        }
        # The phases plus this remainder sum to the program's own
        # search time on the same inputs.
        out["core.unattributed_ms"] = (
            session_ms - sum(phase_ms.values()), "ms"
        )
        out["core.pairwise_paths"] = (self.pairwise_paths, "count")
        out["core.pairwise_tuple_paths"] = (self.pairwise_tuple_paths, "count")
        out["core.complete_tuple_paths"] = (self.complete_tuple_paths, "count")
        out["core.candidates"] = (self.candidates, "count")
        out["core.instantiate_yield"] = (
            _ratio(self.valid_pairwise_paths, self.pairwise_paths), "ratio"
        )
        out["core.weave_yield"] = (
            _ratio(self.complete_tuple_paths, self.pairwise_tuple_paths),
            "ratio",
        )
        p = max(self.prunes, 1)
        out["core.prune_attribute_ms"] = (
            self.prune_attribute_s * 1000 / p, "ms"
        )
        out["core.prune_structure_ms"] = (
            self.prune_structure_s * 1000 / p, "ms"
        )
        out["core.prune_kept_ratio"] = (
            _ratio(self.prune_kept, self.prune_before), "ratio"
        )
        return out

    def overhead_pct(self) -> float:
        """Phase-by-phase search time over the session's, minus one."""
        if not self.session_search_s:
            return 0.0
        return (self.traced_search_s / self.session_search_s - 1) * 100


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _ranked_key(candidate) -> tuple[Hashable, float, int]:
    return (candidate.mapping.signature(), candidate.score, candidate.support)


def run_flow(
    make_session: Callable[[], MappingSession],
    cells: Callable[[MappingSession], Iterator[Cell]],
    goal: Hashable,
    attribution: CoreAttribution | None = None,
    *,
    key: Callable[[MappingPath], Hashable] = MappingPath.signature,
) -> FlowTimes:
    """Feed one flow's cells and check every answer against ``goal``.

    ``cells`` yields the next input given the live session, so a
    feeder can stop once the session converged.  The goal must survive
    every sample once the search ran, and rank first at the end;
    ``key`` maps a candidate mapping to what ``goal`` is compared with.
    """
    times = FlowTimes()
    started = time.perf_counter()
    session = make_session()
    times.program_s += time.perf_counter() - started
    for cell in cells(session):
        row, column, value = cell
        searched_before = session.search_result is not None
        before = (
            session.candidate_mappings
            if attribution is not None and row else None
        )
        started = time.perf_counter()
        session.input(row, column, value)
        elapsed = time.perf_counter() - started
        times.program_s += elapsed
        times.input_s.append(elapsed)
        times.samples += 1
        if session.search_result is None:
            continue
        if not searched_before:
            times.search_s.append(elapsed)
            if attribution is not None:
                attribution.traced_search(session, elapsed)
        elif row:
            times.prune_s.append(elapsed)
            if attribution is not None:
                attribution.traced_prune(session, before, cell)
        checks.check_goal_alive(
            map(key, session.candidate_mappings),
            goal,
            samples=times.samples,
        )
    times.outcome = checks.flow_outcome(
        [key(mapping) for mapping in session.candidate_mappings], goal
    )
    return times


def summarize_flows(flows: list[FlowTimes]) -> dict[str, list[float]]:
    """Pool per-flow timings into samples for percentiles."""
    return {
        "search": [s for flow in flows for s in flow.search_s],
        "prune": [s for flow in flows for s in flow.prune_s],
        "input": [s for flow in flows for s in flow.input_s],
        "program": [flow.program_s for flow in flows],
        "samples": [flow.samples for flow in flows],
    }

