"""Candidate mapping extraction and ranking (Section 4.5.5).

Complete tuple paths are grouped by the mapping path they instantiate;
each tuple path is scored by a weighted combination of its *matching
score* (how well the samples match the projected instance values) and
its *complexity score* (number of joins); a mapping's score is the
average over its supporting tuple paths.  Candidates are returned best
first with a deterministic tie-break.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.config import RankingWeights
from repro.core.canonical import signature_sort_key
from repro.core.mapping_path import MappingPath
from repro.core.tuple_path import TuplePath
from repro.obs import get_tracer
from repro.relational.database import Database
from repro.resilience.budget import NULL_BUDGET
from repro.text.errors import ErrorModel


@dataclass(frozen=True)
class RankedMapping:
    """One candidate mapping with its score and instance support."""

    mapping: MappingPath
    score: float
    tuple_paths: tuple[TuplePath, ...]

    @property
    def support(self) -> int:
        """Number of tuple paths instantiating the mapping."""
        return len(self.tuple_paths)

    def describe(self) -> str:
        """One-line rendering with score and support count."""
        return (
            f"score={self.score:.3f} support={self.support} "
            f"{self.mapping.describe()}"
        )


def matching_score(
    db: Database,
    tuple_path: TuplePath,
    samples: Mapping[int, str],
    model: ErrorModel,
) -> float:
    """Mean similarity between the samples and the projected values."""

    def similarity(relation: str, row: int, attribute: str, key: int) -> float:
        value = db.table(relation).value(row, attribute)
        return model.similarity(value, samples[key])

    return _mean_similarity(tuple_path, samples, similarity)


def _mean_similarity(
    tuple_path: TuplePath,
    samples: Mapping[int, str],
    similarity: Callable[[str, int, str, int], float],
) -> float:
    """Mean of ``similarity(relation, row, attribute, key)`` over the
    projected columns that have a sample."""
    similarities = []
    for key in tuple_path.keys:
        if key in samples:
            vertex, attribute = tuple_path.projections[key]
            similarities.append(
                similarity(
                    tuple_path.tree.relation_of(vertex),
                    tuple_path.rows[vertex],
                    attribute,
                    key,
                )
            )
    if not similarities:
        return 0.0
    return sum(similarities) / len(similarities)


def score_tuple_path(
    db: Database,
    tuple_path: TuplePath,
    samples: Mapping[int, str],
    model: ErrorModel,
    weights: RankingWeights,
) -> float:
    """Weighted matching-minus-complexity score of one tuple path."""
    match = matching_score(db, tuple_path, samples, model)
    return weights.match_weight * match - weights.join_weight * tuple_path.n_joins


def rank_mappings(
    db: Database,
    complete_tuple_paths: Sequence[TuplePath],
    samples: Sequence[str],
    model: ErrorModel,
    weights: RankingWeights,
    budget=NULL_BUDGET,
) -> list[RankedMapping]:
    """Group complete tuple paths by mapping and rank the mappings.

    The sort is best-score first; ties break toward fewer joins, then
    the mapping's canonical signature
    (:func:`~repro.core.canonical.signature_sort_key`), so results are
    deterministic run to run and two isomorphic mappings rank alike
    however their vertices are numbered.

    With tracing enabled, the open span (``tpw.rank`` in a search)
    records each ranked candidate's score decomposition:
    ``score = match_weight * mean(match) − join_weight * n_joins``.

    ``budget`` is checked once per mapping group before scoring (scores
    read instance values); on exhaustion the groups scored so far are
    still sorted and returned, with a ``rank`` degradation recording the
    unscored remainder.  Tuple paths projecting only a subset of the
    sample columns score against that subset, so degraded partial paths
    rank cleanly.
    """
    span = get_tracer().current()
    sample_map = dict(enumerate(samples))
    groups: dict[object, tuple[MappingPath, list[TuplePath]]] = {}
    for tuple_path in complete_tuple_paths:
        mapping = tuple_path.to_mapping_path()
        signature = mapping.signature()
        if signature in groups:
            groups[signature][1].append(tuple_path)
        else:
            groups[signature] = (mapping, [tuple_path])

    # Candidates share source values, so score each (relation, row,
    # attribute, sample column) once per call.
    memo: dict[tuple[str, int, str, int], float] = {}

    def similarity(relation: str, row: int, attribute: str, key: int) -> float:
        memo_key = (relation, row, attribute, key)
        score = memo.get(memo_key)
        if score is None:
            value = db.table(relation).value(row, attribute)
            score = memo[memo_key] = model.similarity(value, sample_map[key])
        return score

    ranked = []
    match_means: dict[int, float] = {}
    scored = 0
    for mapping, tuple_paths in groups.values():
        if budget.exhausted():
            budget.stop(
                "rank",
                groups_scored=scored,
                groups_unscored=len(groups) - scored,
            )
            break
        scored += 1
        budget.charge()
        matches = [
            _mean_similarity(tuple_path, sample_map, similarity)
            for tuple_path in tuple_paths
        ]
        scores = [
            weights.match_weight * match - weights.join_weight * tuple_path.n_joins
            for match, tuple_path in zip(matches, tuple_paths)
        ]
        candidate = RankedMapping(
            mapping=mapping,
            score=sum(scores) / len(scores),
            tuple_paths=tuple(tuple_paths),
        )
        ranked.append(candidate)
        if span is not None:
            match_means[id(candidate)] = sum(matches) / len(matches)
    ranked.sort(
        key=lambda candidate: (
            -candidate.score,
            candidate.mapping.n_joins,
            signature_sort_key(candidate.mapping.signature()),
        )
    )
    if span is not None:
        for rank, candidate in enumerate(ranked, start=1):
            match_mean = match_means[id(candidate)]
            span.record(
                "scores",
                {
                    "rank": rank,
                    "mapping": candidate.mapping.describe(),
                    "score": candidate.score,
                    "match_mean": match_mean,
                    "match_term": weights.match_weight * match_mean,
                    "join_term": weights.join_weight * candidate.mapping.n_joins,
                    "n_joins": candidate.mapping.n_joins,
                    "support": candidate.support,
                },
            )
    return ranked
