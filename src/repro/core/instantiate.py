"""Pairwise tuple path creation (Section 4.5.3, Appendix A.3).

Each pairwise mapping path is translated into an approximate-search
query — its join tree plus a containment predicate at each projected
end — and executed.  Every satisfying assignment becomes a pairwise
tuple path; mapping paths with no support are pruned here, which is the
early pruning that gives TPW its edge over the naive baseline.

Many mapping paths share an endpoint (relation, attribute) for the same
sample, so one call resolves each such text probe once and lets every
later query reuse its row set.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config import TPWConfig
from repro.core.mapping_path import MappingPath
from repro.core.tuple_path import TuplePath
from repro.obs import get_metrics, get_tracer
from repro.relational.database import Database
from repro.relational.executor import ProbeMemo, evaluate_tree
from repro.resilience.budget import NULL_BUDGET
from repro.text.errors import ErrorModel


def instantiate_mapping_path(
    db: Database,
    mapping_path: MappingPath,
    samples: Sequence[str],
    model: ErrorModel,
    *,
    probes: ProbeMemo | None = None,
) -> list[TuplePath]:
    """All tuple paths instantiating ``mapping_path`` for ``samples``.

    ``samples`` is the full sample tuple; only the columns the mapping
    path projects constrain the query.  ``probes`` is a caller's memo of
    resolved text probes (see :mod:`repro.relational.executor`).
    """
    bound = {
        key: samples[key] for key in mapping_path.projections if key < len(samples)
    }
    predicates = mapping_path.predicates_for(bound, model)
    assignments = evaluate_tree(
        db, mapping_path.tree, predicates, probes=probes
    )
    return [
        TuplePath(mapping_path.tree, assignment, mapping_path.projections)
        for assignment in assignments
    ]


def create_pairwise_tuple_paths(
    db: Database,
    pmpm: dict[tuple[int, int], list[MappingPath]],
    samples: Sequence[str],
    model: ErrorModel,
    config: TPWConfig,
    tracer=None,
    budget=NULL_BUDGET,
) -> tuple[dict[tuple[int, int], list[TuplePath]], int]:
    """Build the Pairwise Tuple Path Map (paper: ``PTPM``).

    Returns the map plus the count of pairwise mapping paths that
    turned out valid (had at least one supporting tuple path).  Each
    key pair's query batch runs inside a ``tpw.instantiate.pair`` span
    on ``tracer`` (default: the shared :mod:`repro.obs` handle), which
    records one decision per queried mapping path, carrying the support
    count and the ``zero-support`` prune reason when the query came back
    empty.

    ``budget`` is checked before each instantiation query (the phase's
    expensive unit); on exhaustion the partial map is returned and an
    ``instantiate`` degradation records the mapping paths left unqueried.

    Each distinct (relation, attribute, sample) text probe is searched
    once per call; the memo holding its rows is dropped on return.
    """
    tracer = tracer or get_tracer()
    metrics = get_metrics()
    invalid_counter = metrics.counter("repro.instantiate.pruned_mapping_paths")
    ptpm: dict[tuple[int, int], list[TuplePath]] = {}
    valid_mapping_paths = 0
    total_paths = sum(len(paths) for paths in pmpm.values())
    queried = 0
    probes: ProbeMemo = {}
    for key_pair, mapping_paths in pmpm.items():
        with tracer.span(
            "tpw.instantiate.pair",
            keys=list(key_pair),
            mapping_paths=len(mapping_paths),
        ) as span:
            collected: list[TuplePath] = []
            valid_here = 0
            for mapping_path in mapping_paths:
                if budget.exhausted():
                    budget.stop(
                        "instantiate",
                        queries_run=queried,
                        mapping_paths_unqueried=total_paths - queried,
                    )
                    valid_mapping_paths += valid_here
                    span.set("valid_mapping_paths", valid_here)
                    span.set("tuple_paths", len(collected))
                    if collected:
                        ptpm[key_pair] = collected
                    metrics.counter("repro.instantiate.queries").inc(queried)
                    return ptpm, valid_mapping_paths
                queried += 1
                budget.charge()
                tuple_paths = instantiate_mapping_path(
                    db,
                    mapping_path,
                    samples,
                    model,
                    probes=probes,
                )
                if tuple_paths:
                    valid_here += 1
                    collected.extend(tuple_paths)
                if tracer.enabled:
                    support = len(tuple_paths)
                    span.record(
                        "decisions",
                        {
                            "pair": list(key_pair),
                            "path": mapping_path.describe(),
                            "depth": mapping_path.n_joins,
                            "support": support,
                            "decision": "kept" if support else "pruned",
                            "reason": None if support else "zero-support",
                        },
                    )
            invalid_counter.inc(len(mapping_paths) - valid_here)
            valid_mapping_paths += valid_here
            span.set("valid_mapping_paths", valid_here)
            span.set("tuple_paths", len(collected))
        if collected:
            ptpm[key_pair] = collected
    metrics.counter("repro.instantiate.queries").inc(queried)
    return ptpm, valid_mapping_paths
