"""Configuration objects for the TPW engine and its baselines.

The paper exposes one headline knob, ``PMNJ`` (Pairwise Maximal Number of
Joins, Section 4.5.2), and fixes it to two in all experiments.  This
module collects that knob together with the naive baseline's
enumeration bound and the ranking weights of Section 4.5.5.  A TPW
search is stopped early only by a :class:`~repro.resilience.Budget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RankingWeights:
    """Weights of the two ranking components (Section 4.5.5).

    A complete tuple path is scored as::

        score = match_weight * matching_score - join_weight * n_joins

    where ``matching_score`` is the mean string similarity between the
    samples and the projected instance values (in ``[0, 1]``) and
    ``n_joins`` is the number of edges in the path.  A mapping path's
    score is the average over its supporting tuple paths.
    """

    match_weight: float = 1.0
    join_weight: float = 0.05

    def __post_init__(self) -> None:
        if self.match_weight < 0 or self.join_weight < 0:
            raise ValueError("ranking weights must be non-negative")


@dataclass(frozen=True)
class TPWConfig:
    """Tuning parameters for the Tuple Path Weaving search.

    Parameters
    ----------
    pmnj:
        Pairwise Maximal Number of Joins.  A pairwise mapping path may
        join its two projected attributes through at most ``pmnj``
        foreign-key joins.  The paper uses ``2`` throughout.
    allow_backtrack:
        If false (default), the breadth-first search over the schema
        graph never traverses the same foreign-key edge twice in a row
        (no immediate U-turns).  Such walks only re-derive the tuples
        they came from and inflate the search space.  Set to true to
        reproduce the unrestricted walk semantics of Algorithm 3.
    exhaustive_weave:
        If false (default, the paper's Algorithm 6 semantics), weaving
        attaches the unfused remainder of a pairwise path as a new tail
        *only when fusion fails*.  If true, the attach option is also
        explored where fusion would succeed, which additionally yields
        mappings that duplicate an existing tuple as a separate vertex.
        Such mappings are valid but homomorphically redundant — their
        output always contains the fused mapping's output, so no amount
        of user samples can ever prune them, and the candidate set
        cannot converge.  Exhaustive mode exists for the completeness
        cross-checks against the enumerate-everything baseline.
    ranking:
        Weights for the final ranking stage.
    """

    pmnj: int = 2
    allow_backtrack: bool = False
    exhaustive_weave: bool = False
    ranking: RankingWeights = field(default_factory=RankingWeights)

    def __post_init__(self) -> None:
        if self.pmnj < 0:
            raise ValueError("pmnj must be non-negative")


@dataclass(frozen=True)
class NaiveConfig:
    """Tuning parameters for the naive candidate-network baseline.

    The naive algorithm of Section 6.3 enumerates every complete mapping
    path up to the join bound and validates each with a database query.
    Its enumeration explodes combinatorially (the paper reports memory
    exhaustion beyond target size four), so we bound it explicitly.

    Parameters
    ----------
    pmnj:
        Same pairwise join bound as :class:`TPWConfig` so that the two
        algorithms explore the same mapping family.
    max_candidates:
        Abort (with :class:`~repro.exceptions.SearchBudgetExceeded`)
        once this many candidate mapping paths have been enumerated.
        ``0`` means unbounded — use with care.
    """

    pmnj: int = 2
    max_candidates: int = 200_000

    def __post_init__(self) -> None:
        if self.pmnj < 0:
            raise ValueError("pmnj must be non-negative")
        if self.max_candidates < 0:
            raise ValueError("max_candidates must be >= 0")
