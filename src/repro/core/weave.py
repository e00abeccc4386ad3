"""Tuple path weaving (Algorithms 5–6) and its schema-level twin.

"Weaving" merges a pairwise path onto a base path at their shared
projection key: the two vertices projecting that key must carry the
same source tuple; the traversal then walks the pairwise path, fusing
each vertex with a matching unvisited neighbor of the base, and attaches
whatever fails to fuse as a new tail (Example 6 of the paper).

One deliberate generalisation over the paper's pseudocode: when several
fusion choices exist (the same tuple can legitimately appear twice among
the base's neighbors — e.g. a person who both directed and wrote the
same movie), the paper's greedy "take the next adjacent vertex" can fuse
the wrong occurrence and miss a valid result.  We explore every fusion
choice and return *all* outcomes; canonical-signature deduplication
keeps the result set tight.

The attach-a-tail option is, by default, only taken when fusion *fails*
— exactly Algorithm 6.  ``exhaustive=True`` additionally explores the
attach option where fusion would succeed; that extends coverage to
mappings that keep two copies of the same tuple as distinct vertices,
but those mappings are homomorphically redundant (their output always
contains the fused mapping's), so they can never be pruned by samples
and are excluded from the interactive default.  See
``TPWConfig.exhaustive_weave``.

Every generalisation only ever *adds* sound outcomes: each edge of a
woven path comes from the base or from the (instance-verified) pairwise
path, so Lemma 1 soundness is preserved.

The same merge logic runs at the schema level (vertex compatibility =
same relation instead of same tuple) to enumerate complete mapping
paths for the naive baseline of Section 6.3, guaranteeing that TPW and
the baseline explore exactly the same mapping family.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Hashable, Sequence
from typing import NamedTuple

from repro.config import TPWConfig
from repro.core.canonical import Signature, encode_tree, tree_adjacency, tree_centres
from repro.core.mapping_path import MappingPath
from repro.core.stats import SearchStats
from repro.core.tuple_path import TuplePath
from repro.exceptions import SearchBudgetExceeded
from repro.obs import get_logger, get_metrics, get_tracer
from repro.obs.explain import NULL_EXPLAIN
from repro.obs.metrics import COUNT_BUCKETS
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.resilience.budget import NULL_BUDGET, REASON_LIMIT

_log = get_logger(__name__)


class _WeaveOutcome(NamedTuple):
    """One way of merging a pairwise path onto a base path.

    The pairwise chain's first ``position`` vertices fused with a path
    of base vertices ending at ``vertex``; the rest, if any, are
    attached as a new tail hanging off ``vertex``.  With nothing left to
    attach (``position == len(sequence)``), the woven path is the base
    itself and ``vertex`` projects the far key.
    """

    vertex: int
    position: int


def _merge_choices(
    base_tree: JoinTree,
    base_anchor: int,
    token_base: Callable[[int], Hashable],
    pair_tokens: Sequence[Hashable],
    exhaustive: bool,
) -> list[_WeaveOutcome]:
    """Every merge of a pairwise chain onto ``base`` at its anchor.

    ``pair_tokens`` are the chain's vertex tokens in order from the
    vertex projecting the shared key; the anchors' tokens are known to
    agree.
    """
    outcomes: list[_WeaveOutcome] = []

    def recurse(position: int, current_base: int, visited: frozenset[int]) -> None:
        if position == len(pair_tokens):
            # Fully fused: the base structure is preserved (Alg. 6's
            # "successful merge" case).
            outcomes.append(_WeaveOutcome(current_base, position))
            return
        pair_token = pair_tokens[position]
        fusable = [
            base_edge.other(current_base)
            for base_edge in base_tree.neighbors(current_base)
            if base_edge.other(current_base) not in visited
            and token_base(base_edge.other(current_base)) == pair_token
        ]
        if exhaustive or not fusable:
            outcomes.append(_WeaveOutcome(current_base, position))
        for neighbor in fusable:
            recurse(position + 1, neighbor, visited | {neighbor})

    recurse(1, base_anchor, frozenset((base_anchor,)))
    return outcomes


def _build_tree(
    base_tree: JoinTree,
    pair_tree: JoinTree,
    sequence: tuple[tuple[int, JoinTreeEdge | None], ...],
    outcome: _WeaveOutcome,
) -> tuple[JoinTree, int, dict[int, int]]:
    """The woven tree, its far vertex, and attached vertex → pair vertex.

    Attached vertices are numbered after the base's largest vertex id.
    """
    previous_result, position = outcome
    if position == len(sequence):
        return base_tree, previous_result, {}
    next_id = max(base_tree.vertices) + 1
    vertices = dict(base_tree.vertices)
    edges = list(base_tree.edges)
    attached: dict[int, int] = {}
    for index in range(position, len(sequence)):
        pair_vertex, edge = sequence[index]
        assert edge is not None  # only the anchor has no parent edge
        result_vertex = next_id + index - position
        vertices[result_vertex] = pair_tree.relation_of(pair_vertex)
        attached[result_vertex] = pair_vertex
        source_vertex = (
            result_vertex if edge.source_vertex == pair_vertex else previous_result
        )
        edges.append(
            JoinTreeEdge(
                u=previous_result,
                v=result_vertex,
                fk_name=edge.fk_name,
                source_vertex=source_vertex,
            )
        )
        previous_result = result_vertex
    return JoinTree(vertices, edges), previous_result, attached


def _weave_generic(
    base_tree: JoinTree,
    base_projections: dict[int, tuple[int, str]],
    pair_tree: JoinTree,
    pair_projections: dict[int, tuple[int, str]],
    shared_key: int,
    token_base: Callable[[int], Hashable],
    token_pair: Callable[[int], Hashable],
    exhaustive: bool,
) -> list[tuple[JoinTree, int, dict[int, int]]]:
    """Every merge of ``pair`` onto ``base`` at ``shared_key``, built."""
    base_anchor, base_attr = base_projections[shared_key]
    pair_anchor, pair_attr = pair_projections[shared_key]
    if base_attr != pair_attr:
        return []
    if token_base(base_anchor) != token_pair(pair_anchor):
        return []
    # A pairwise path is a simple path with the shared key at one end,
    # so a BFS order from that end is the chain order.
    sequence = pair_tree.traversal_order(pair_anchor)
    pair_tokens = [token_pair(vertex) for vertex, _edge in sequence]
    return [
        _build_tree(base_tree, pair_tree, sequence, outcome)
        for outcome in _merge_choices(
            base_tree, base_anchor, token_base, pair_tokens, exhaustive
        )
    ]


def _far_key(pair_projections: dict[int, tuple[int, str]], shared_key: int) -> int:
    for key in pair_projections:
        if key != shared_key:
            return key
    raise ValueError("pairwise path does not have a second key")


def _woven_tuple_path(
    base: TuplePath,
    pair: TuplePath,
    far_key: int,
    far_attr: str,
    built: tuple[JoinTree, int, dict[int, int]],
) -> TuplePath:
    tree, far_vertex, attached = built
    rows = dict(base.rows)
    for result_vertex, pair_vertex in attached.items():
        rows[result_vertex] = pair.rows[pair_vertex]
    projections = dict(base.projections)
    projections[far_key] = (far_vertex, far_attr)
    return TuplePath(tree, rows, projections)


def weave_tuple_paths(
    base: TuplePath, pair: TuplePath, shared_key: int, *, exhaustive: bool = False
) -> list[TuplePath]:
    """All tuple paths obtainable by weaving ``pair`` onto ``base``.

    Preconditions: ``pair`` is pairwise, and the two paths' key sets
    intersect exactly on ``shared_key``.
    """
    far_key = _far_key(pair.projections, shared_key)
    far_attr = pair.projections[far_key][1]
    return [
        _woven_tuple_path(base, pair, far_key, far_attr, built)
        for built in _weave_generic(
            base.tree,
            base.projections,
            pair.tree,
            pair.projections,
            shared_key,
            base.tuple_at,
            pair.tuple_at,
            exhaustive,
        )
    ]


def weave_mapping_paths(
    base: MappingPath,
    pair: MappingPath,
    shared_key: int,
    *,
    exhaustive: bool = True,
) -> list[MappingPath]:
    """Schema-level weave: merge on relation names instead of tuples.

    Used by the naive baseline to enumerate the complete mapping path
    family without looking at the instance.  Defaults to exhaustive
    because relation names collide far more often than tuples do, and
    the enumeration must cover every structure the instance-level weave
    can produce (two relation occurrences that greedy schema fusion
    would merge may hold *different* tuples at the instance level).
    """
    far_key = _far_key(pair.projections, shared_key)
    far_attr = pair.projections[far_key][1]
    results = []
    for tree, far_vertex, _attached in _weave_generic(
        base.tree,
        base.projections,
        pair.tree,
        pair.projections,
        shared_key,
        base.tree.relation_of,
        pair.tree.relation_of,
        exhaustive,
    ):
        projections = dict(base.projections)
        projections[far_key] = (far_vertex, far_attr)
        results.append(MappingPath(tree, projections))
    return results


class _Partner:
    """A pairwise tuple path prepared for weaving at one of its keys.

    Holds what every (base, pair) weave would otherwise recompute: the
    far key, the chain from the shared key's vertex with each vertex's
    token, and ``tails[position]``, the ``(relation, row, fk name,
    orientation from the predecessor)`` of each chain vertex from
    ``position`` on — what an outcome at ``position`` attaches to the
    base (nothing for the fully fused one).
    """

    __slots__ = ("path", "far_key", "far_attr", "sequence", "tokens", "tails")

    def __init__(self, path: TuplePath, shared_key: int) -> None:
        self.path = path
        self.far_key = _far_key(path.projections, shared_key)
        self.far_attr = path.projections[self.far_key][1]
        self.sequence = path.tree.traversal_order(path.projections[shared_key][0])
        self.tokens = [path.tuple_at(vertex) for vertex, _edge in self.sequence]
        steps = []
        for index in range(1, len(self.sequence)):
            vertex, edge = self.sequence[index]
            previous = self.sequence[index - 1][0]
            # A pairwise path is a chain: each vertex hangs off the last.
            assert edge is not None and edge.other(vertex) == previous
            orientation = "down" if edge.source_vertex == previous else "up"
            steps.append((*self.tokens[index], edge.fk_name, orientation))
        # Position 0 never occurs: the anchors always fuse.
        self.tails = [()] + [tuple(steps[index:]) for index in range(len(steps) + 1)]


class _Base:
    """A level path's signature data, shared by all its weaves.

    ``signatures`` memoizes woven signatures by what the outcome adds
    to this base: many (pair, fusion) choices add the same projection
    at the same vertex, or the same tail at the same vertex.
    """

    __slots__ = (
        "path", "labels", "adjacency", "centres", "next_id", "tokens", "signatures"
    )

    def __init__(self, path: TuplePath) -> None:
        self.path = path
        self.labels = path.vertex_labels()
        self.adjacency = tree_adjacency(path.tree)
        self.centres = tree_centres(self.adjacency)
        self.next_id = max(path.tree.vertices) + 1
        self.tokens = {
            vertex: (relation, path.rows[vertex])
            for vertex, relation in path.tree.vertices.items()
        }
        self.signatures: dict[tuple, Signature] = {}

    def signature_of(self, partner: _Partner, outcome: _WeaveOutcome) -> Signature:
        """The woven path's signature, computed without building it.

        Equal to ``signature()`` of the tuple path :meth:`build` makes.
        """
        vertex, position = outcome
        local = (vertex, partner.far_key, partner.far_attr, partner.tails[position])
        signature = self.signatures.get(local)
        if signature is None:
            signature = self.signatures[local] = self._encode(*local)
        return signature

    def _encode(
        self, vertex: int, far_key: int, far_attr: str, tail: tuple
    ) -> Signature:
        """Signature of this base with ``tail`` attached at ``vertex``
        and the far projection on the tail's end (``vertex`` if none)."""
        labels = dict(self.labels)
        if not tail:
            relation, row, projected = labels[vertex]
            projected = tuple(sorted((*projected, (far_key, far_attr))))
            labels[vertex] = (relation, row, projected)
            return encode_tree(labels, self.adjacency, self.centres)
        adjacency = dict(self.adjacency)
        previous = vertex
        for offset, (relation, row, fk_name, orientation) in enumerate(tail):
            attached = self.next_id + offset
            labels[attached] = (relation, row, ())
            adjacency[previous] = [*adjacency[previous], (attached, fk_name, orientation)]
            adjacency[attached] = [
                (previous, fk_name, "up" if orientation == "down" else "down")
            ]
            previous = attached
        labels[previous] = (relation, row, ((far_key, far_attr),))
        return encode_tree(labels, adjacency)

    def build(self, partner: _Partner, outcome: _WeaveOutcome) -> TuplePath:
        """The woven tuple path for ``outcome``."""
        built = _build_tree(
            self.path.tree, partner.path.tree, partner.sequence, outcome
        )
        return _woven_tuple_path(
            self.path, partner.path, partner.far_key, partner.far_attr, built
        )


def weave_complete_tuple_paths(
    ptpm: dict[tuple[int, int], list[TuplePath]],
    target_size: int,
    config: TPWConfig,
    stats: SearchStats,
    tracer=None,
    explain=NULL_EXPLAIN,
    budget=NULL_BUDGET,
) -> list[TuplePath]:
    """Algorithm 5: build complete tuple paths level by level.

    Level ``n`` holds the distinct tuple paths of size ``n``; each level
    ``n + 1`` is produced by weaving every eligible pairwise tuple path
    (exactly one shared key) onto every level-``n`` path.  Statistics
    for Figures 12–13 and Table 4 are recorded on ``stats`` and, when
    ``tracer`` (default: the shared :mod:`repro.obs` handle) is live,
    mirrored onto one ``tpw.weave.level`` span per level.  ``explain``
    receives the fuse statistics — candidates in/out per level, how many
    woven paths were dominated (duplicate canonical signature), and a
    few dominated examples.

    ``budget`` is checked once per base path; on exhaustion the most
    advanced non-empty level is returned (partial tuple paths rank into
    partial candidate mappings downstream) with a ``weave`` degradation.
    A *live* budget also converts the ``max_woven_paths_per_level``
    overflow into degradation — the level is truncated to the limit and
    weaving stops — where the legacy (un-budgeted) path keeps raising
    :class:`SearchBudgetExceeded`.
    """
    tracer = tracer or get_tracer()
    metrics = get_metrics()
    pairwise_in = sum(len(tuple_paths) for tuple_paths in ptpm.values())
    level: dict[object, TuplePath] = {}
    for tuple_paths in ptpm.values():
        for tuple_path in tuple_paths:
            level.setdefault(tuple_path.signature(), tuple_path)
    stats.pairwise_tuple_paths = len(level)
    if explain.enabled:
        explain.weave_entry(pairwise_in, len(level))

    # Index the deduplicated pairwise paths by (key, tuple, attribute)
    # so the inner loop only sees weavable partners.
    anchor_index: dict[tuple, list[_Partner]] = {}
    for tuple_path in level.values():
        for key, (vertex, attribute) in tuple_path.projections.items():
            anchor = (key, tuple_path.tuple_at(vertex), attribute)
            anchor_index.setdefault(anchor, []).append(_Partner(tuple_path, key))

    current = level
    start = time.monotonic()
    for size in range(2, target_size):
        with tracer.span("tpw.weave.level", level=size + 1) as level_span:
            next_level: dict[object, TuplePath] = {}
            woven = 0
            dominated_examples: list[str] = []
            bases_done = 0
            for base in current.values():
                if budget.exhausted():
                    budget.stop(
                        "weave",
                        level=size + 1,
                        bases_done=bases_done,
                        bases_skipped=len(current) - bases_done,
                        levels_skipped=target_size - (size + 1),
                    )
                    # Anytime result: the most advanced non-empty level.
                    partial = next_level or current
                    level_span.set("woven", woven)
                    level_span.set("kept", len(partial))
                    complete = list(partial.values())
                    stats.complete_tuple_paths = len(complete)
                    return complete
                bases_done += 1
                budget.charge()
                prepared = _Base(base)
                for key, (vertex, attribute) in base.projections.items():
                    anchor = (key, prepared.tokens[vertex], attribute)
                    for partner in anchor_index.get(anchor, ()):
                        if partner.far_key in base.projections:
                            continue
                        # Sign each outcome first and build the tuple
                        # path only for a new signature: most woven
                        # outcomes are duplicates.
                        for outcome in _merge_choices(
                            base.tree,
                            vertex,
                            prepared.tokens.__getitem__,
                            partner.tokens,
                            config.exhaustive_weave,
                        ):
                            woven += 1
                            signature = prepared.signature_of(partner, outcome)
                            if signature not in next_level:
                                next_level[signature] = prepared.build(
                                    partner, outcome
                                )
                            elif (
                                explain.enabled
                                and len(dominated_examples) < 3
                            ):
                                dominated_examples.append(
                                    prepared.build(partner, outcome).describe()
                                )
            stats.woven_per_level[size + 1] = woven
            stats.kept_per_level[size + 1] = len(next_level)
            level_span.set("woven", woven)
            level_span.set("kept", len(next_level))
            explain.level_fuse(
                level_span,
                level=size + 1,
                bases_in=len(current),
                woven=woven,
                kept=len(next_level),
                examples=dominated_examples,
            )
            metrics.counter("repro.weave.woven").inc(woven)
            metrics.histogram(
                "repro.weave.level_width", buckets=COUNT_BUCKETS
            ).observe(len(next_level))
            if (
                config.max_woven_paths_per_level
                and len(next_level) > config.max_woven_paths_per_level
            ):
                _log.warning(
                    "weave budget exceeded at level %d: %d > %d kept paths",
                    size + 1, len(next_level), config.max_woven_paths_per_level,
                )
                if budget.live:
                    # Anytime semantics: truncate to the configured width
                    # and surface the overflow as a degradation instead
                    # of failing the whole search.
                    dropped = len(next_level) - config.max_woven_paths_per_level
                    budget.stop(
                        "weave",
                        reason=REASON_LIMIT,
                        level=size + 1,
                        paths_dropped=dropped,
                        levels_skipped=target_size - (size + 1),
                    )
                    kept = dict(
                        itertools.islice(
                            next_level.items(),
                            config.max_woven_paths_per_level,
                        )
                    )
                    complete = list(kept.values())
                    stats.complete_tuple_paths = len(complete)
                    return complete
                raise SearchBudgetExceeded(
                    f"tuple paths at level {size + 1}",
                    config.max_woven_paths_per_level,
                    phase="weave",
                    elapsed_s=time.monotonic() - start,
                    explored={
                        "woven": woven,
                        "kept": len(next_level),
                        "level": size + 1,
                    },
                )
        current = next_level

    complete = list(current.values())
    stats.complete_tuple_paths = len(complete)
    return complete
