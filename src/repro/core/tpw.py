"""The Tuple Path Weaving engine (Section 4.5, end to end).

:class:`TPWEngine` wires the five TPW steps together:

1. locate sample occurrences (:mod:`repro.core.location`),
2. generate pairwise mapping paths (:mod:`repro.core.pairwise`),
3. instantiate them into pairwise tuple paths
   (:mod:`repro.core.instantiate`),
4. weave complete tuple paths (:mod:`repro.core.weave`),
5. extract and rank candidate mappings (:mod:`repro.core.ranking`).

A target of size one never enters the weave: its candidates are exactly
the single-attribute mappings of the location map, instantiated
directly.

Each phase runs inside a :mod:`repro.obs` span (``tpw.locate`` …
``tpw.rank`` under a ``tpw.search`` root); with tracing enabled the
finished tree is attached to :attr:`SearchResult.trace` and every
:class:`~repro.core.stats.SearchStats` counter doubles as a span
attribute, so ``SearchStats.from_span(result.trace)`` reproduces the
stats exactly.  With tracing disabled the spans degrade to bare
stopwatches that still feed the phase timings.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.config import TPWConfig
from repro.core.instantiate import (
    create_pairwise_tuple_paths,
    instantiate_mapping_path,
)
from repro.core.location import LocationMap, build_location_map
from repro.core.mapping_path import MappingPath, single_relation_mapping
from repro.core.pairwise import count_pairwise_paths, generate_pairwise_mapping_paths
from repro.core.ranking import RankedMapping, rank_mappings
from repro.core.stats import SearchStats
from repro.core.tuple_path import TuplePath
from repro.core.weave import weave_complete_tuple_paths
from repro.exceptions import SessionError
from repro.graphs.schema_graph import SchemaGraph
from repro.obs import get_logger, get_metrics, get_tracer
from repro.obs.tracer import Span
from repro.relational.database import Database
from repro.resilience.budget import NULL_BUDGET
from repro.text.errors import ErrorModel, default_error_model

_log = get_logger(__name__)

#: Process-wide search ids, so traces holding several searches (a bench
#: run, a session with re-searches) can be told apart by explain tools.
_search_ids = itertools.count(1)


@dataclass
class SearchResult:
    """Outcome of one sample search.

    ``candidates`` are the valid complete mappings, best ranked first;
    ``stats`` carries the counters Tables 2–4 and Figure 13 report;
    ``trace`` is the finished ``tpw.search`` span tree when tracing was
    enabled for the search (``None`` otherwise).
    """

    sample_tuple: tuple[str, ...]
    candidates: list[RankedMapping]
    location_map: LocationMap
    stats: SearchStats = field(default_factory=SearchStats)
    trace: Span | None = None
    #: Process-unique id of this search; also the ``search_id``
    #: attribute of the ``tpw.search`` span, so multi-search traces can
    #: be disambiguated (``SearchStats.from_trace``, ``repro explain``).
    search_id: int = 0
    #: ``True`` when a budget stopped the search early: ``candidates``
    #: is then the best-effort ranked set (anytime semantics), possibly
    #: holding partial mappings that project a subset of the columns.
    degraded: bool = False
    #: Machine-readable degradation payload (``Budget.summary()``):
    #: which phase stopped, why, and what was skipped. ``None`` when
    #: the search completed cleanly.
    degradation: dict | None = None

    @property
    def mappings(self) -> list[MappingPath]:
        """The candidate mapping paths, best first."""
        return [candidate.mapping for candidate in self.candidates]

    @property
    def n_candidates(self) -> int:
        """Number of valid complete mappings found."""
        return len(self.candidates)

    def best(self) -> RankedMapping | None:
        """The top-ranked candidate, or ``None`` when there is none."""
        return self.candidates[0] if self.candidates else None


class TPWEngine:
    """Sample search over one source database.

    Parameters
    ----------
    db:
        The source database instance.
    config:
        Search knobs; defaults to the paper's settings (PMNJ = 2).
    model:
        The noisy-containment error model; defaults to token
        containment, mirroring the paper's MySQL full-text setup.
    location_cache:
        Optional shared LocateSample cache (any object exposing
        ``location_map(db, samples, model) -> LocationMap``), used by
        the service layer to share per-sample occurrence lookups
        across concurrent sessions; ``None`` locates from scratch.
    """

    def __init__(
        self,
        db: Database,
        config: TPWConfig | None = None,
        model: ErrorModel | None = None,
        *,
        location_cache=None,
    ) -> None:
        self.db = db
        self.config = config or TPWConfig()
        self.model = model or default_error_model()
        self.graph = SchemaGraph(db.schema)
        self.location_cache = location_cache

    def _locate(self, samples: tuple[str, ...]) -> LocationMap:
        """LocateSample, through the shared cache when one is attached."""
        if self.location_cache is not None:
            return self.location_cache.location_map(
                self.db, samples, self.model
            )
        return build_location_map(self.db, samples, self.model)

    # ------------------------------------------------------------------

    def search(
        self, sample_tuple: Sequence[str], *, budget=NULL_BUDGET
    ) -> SearchResult:
        """Run the full TPW sample search for one sample tuple.

        Returns every valid complete mapping path within the configured
        search family, ranked.  An empty ``candidates`` list means no
        project-join mapping can produce the sample tuple — typically
        because one sample occurs nowhere in the source (check
        ``result.location_map.empty_keys()``).

        ``budget`` (a :class:`~repro.resilience.Budget`) turns on
        anytime semantics: when its deadline/work allowance runs out or
        it is cancelled, the search stops at the next iteration
        boundary and the result carries the best-effort ranked
        candidates found so far with ``degraded=True`` and a
        machine-readable ``degradation`` payload — never an exception.
        """
        samples = tuple(str(sample) for sample in sample_tuple)
        if not samples:
            raise SessionError("the sample tuple must have at least one column")
        tracer = get_tracer()
        stats = SearchStats()
        search_id = next(_search_ids)
        with tracer.span(
            "tpw.search", columns=len(samples), search_id=search_id
        ) as root:
            candidates, location_map = self._search_phases(
                samples, stats, tracer, budget
            )
            root.set("candidates", len(candidates))
            if budget.degraded:
                root.set("degraded", True)
                root.set("degradation", budget.summary())
        stats.timings["total"] = root.duration
        get_metrics().histogram("repro.search.seconds").observe(root.duration)
        if budget.degraded:
            get_metrics().counter("repro.search.degraded").inc()
            _log.warning(
                "tpw.search degraded: %s", budget.summary(),
            )
        _log.debug(
            "tpw.search columns=%d candidates=%d total=%.1fms",
            len(samples), len(candidates), root.duration * 1000,
        )
        return SearchResult(
            samples,
            candidates,
            location_map,
            stats,
            trace=root if tracer.enabled else None,
            search_id=search_id,
            degraded=budget.degraded,
            degradation=budget.summary(),
        )

    def _search_phases(
        self,
        samples: tuple[str, ...],
        stats: SearchStats,
        tracer,
        budget=NULL_BUDGET,
    ) -> tuple[list[RankedMapping], LocationMap]:
        """The phase pipeline, each phase inside its span.

        Anytime behavior: after each phase the budget is consulted;
        once it is exhausted the remaining phases are skipped and the
        most advanced tuple paths available go straight to ranking, so
        a degraded search still returns a ranked (possibly partial)
        candidate list whenever at least one pairwise tuple path was
        instantiated before the budget tripped.
        """
        with tracer.span("tpw.locate") as span:
            location_map = self._locate(samples)
            stats.location_hits = {
                key: len(location_map.attributes_of(key))
                for key in range(len(samples))
            }
            span.set(
                "hits_by_key",
                {str(key): hits for key, hits in stats.location_hits.items()},
            )
            span.set(
                "attribute_hits", location_map.total_occurrence_attributes()
            )
            span.set("empty_keys", list(location_map.empty_keys()))
        stats.timings["locate"] = span.duration

        if location_map.empty_keys():
            return [], location_map

        if budget.exhausted():
            budget.stop("locate")
            return [], location_map

        if len(samples) == 1:
            return (
                self._search_single_column(
                    samples, location_map, stats, tracer, budget
                ),
                location_map,
            )

        with tracer.span("tpw.pairwise") as span:
            pmpm = generate_pairwise_mapping_paths(
                self.graph, location_map, self.config, budget=budget,
            )
            stats.pairwise_mapping_paths = count_pairwise_paths(pmpm)
            span.set("mapping_paths", stats.pairwise_mapping_paths)
        stats.timings["pairwise"] = span.duration

        with tracer.span("tpw.instantiate") as span:
            ptpm, valid_pairwise = create_pairwise_tuple_paths(
                self.db, pmpm, samples, self.model, self.config,
                tracer=tracer, budget=budget,
            )
            stats.pairwise_valid_mapping_paths = valid_pairwise
            span.set("valid_mapping_paths", valid_pairwise)
            span.set(
                "tuple_paths",
                sum(len(paths) for paths in ptpm.values()),
            )
        stats.timings["instantiate"] = span.duration

        if budget.degraded:
            # The weave would start from an incomplete pairwise map;
            # rank the instantiated pairwise tuple paths directly so the
            # user still sees the best-supported (partial) mappings.
            # They are distinct by construction, as in the weave.
            complete = [
                tuple_path
                for tuple_paths in ptpm.values()
                for tuple_path in tuple_paths
            ]
            stats.pairwise_tuple_paths = len(complete)
        else:
            with tracer.span("tpw.weave") as span:
                complete = weave_complete_tuple_paths(
                    ptpm, len(samples), self.config, stats,
                    tracer=tracer, budget=budget,
                )
                span.set("pairwise_tuple_paths", stats.pairwise_tuple_paths)
                span.set("complete_tuple_paths", stats.complete_tuple_paths)
            stats.timings["weave"] = span.duration

        with tracer.span("tpw.rank") as span:
            candidates = rank_mappings(
                self.db, complete, samples, self.model, self.config.ranking,
                # Ranking what survived is part of the anytime contract:
                # an already-exhausted budget must not empty the answer.
                budget=NULL_BUDGET if budget.degraded else budget,
            )
            stats.valid_complete_mappings = len(candidates)
            span.set("candidates", len(candidates))
        stats.timings["rank"] = span.duration
        return candidates, location_map

    # ------------------------------------------------------------------

    def _search_single_column(
        self,
        samples: tuple[str, ...],
        location_map: LocationMap,
        stats: SearchStats,
        tracer,
        budget=NULL_BUDGET,
    ) -> list[RankedMapping]:
        """Target size one: each containing attribute is a candidate."""
        with tracer.span("tpw.instantiate", single_column=True) as span:
            tuple_paths: list[TuplePath] = []
            attributes = location_map.attributes_of(0)
            for done, (relation, attribute) in enumerate(attributes):
                if budget.exhausted():
                    budget.stop(
                        "instantiate",
                        attributes_done=done,
                        attributes_skipped=len(attributes) - done,
                    )
                    break
                budget.charge()
                mapping = single_relation_mapping(relation, {0: attribute})
                tuple_paths.extend(
                    instantiate_mapping_path(
                        self.db, mapping, samples, self.model
                    )
                )
            stats.complete_tuple_paths = len(tuple_paths)
            span.set("complete_tuple_paths", len(tuple_paths))
        stats.timings["instantiate"] = span.duration

        with tracer.span("tpw.rank") as span:
            candidates = rank_mappings(
                self.db, tuple_paths, samples, self.model, self.config.ranking,
                budget=NULL_BUDGET if budget.degraded else budget,
            )
            stats.valid_complete_mappings = len(candidates)
            span.set("candidates", len(candidates))
        stats.timings["rank"] = span.duration
        return candidates
