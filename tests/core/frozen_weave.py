"""A frozen copy of the all-roots canonical encoding and the
build-then-sign weave, kept as a differential oracle.

``repro.core.canonical`` roots its encoding at the tree centre and
``repro.core.weave`` signs woven outcomes before building them.  This
module keeps the simpler design they replaced, verbatim in behaviour:
encode at every root and keep the minimum; build every woven tuple
path, then sign it.  ``test_weave_oracle.py`` checks the two agree.
Do not optimise this module: its value is that it stays obviously
correct.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass

from repro.config import TPWConfig
from repro.core.tuple_path import TuplePath
from repro.relational.query import JoinTree, JoinTreeEdge


def frozen_canonical_signature(
    tree: JoinTree, vertex_label: Callable[[int], Hashable]
) -> Hashable:
    """AHU encoding rooted at every vertex; the minimum wins."""

    def encode(vertex: int, parent: int | None) -> tuple:
        children = []
        for edge in tree.neighbors(vertex):
            neighbor = edge.other(vertex)
            if neighbor == parent:
                continue
            orientation = "down" if edge.source_vertex == vertex else "up"
            children.append((edge.fk_name, orientation, encode(neighbor, vertex)))
        children.sort()
        return (vertex_label(vertex), tuple(children))

    return min(encode(root, None) for root in tree.vertices)


def frozen_tuple_signature(path: TuplePath) -> Hashable:
    """A tuple path's signature under the all-roots encoding."""
    by_vertex: dict[int, list[tuple[int, str]]] = {}
    for key, (vertex, attribute) in path.projections.items():
        by_vertex.setdefault(vertex, []).append((key, attribute))

    def label(vertex: int) -> tuple:
        return (
            path.tree.relation_of(vertex),
            path.rows[vertex],
            tuple(sorted(by_vertex.get(vertex, ()))),
        )

    return frozen_canonical_signature(path.tree, label)


@dataclass(frozen=True)
class _WeaveOutcome:
    tree: JoinTree
    far_vertex: int
    attached: dict[int, int]


def _weave_generic(
    base_tree: JoinTree,
    base_projections: dict[int, tuple[int, str]],
    pair_tree: JoinTree,
    pair_projections: dict[int, tuple[int, str]],
    shared_key: int,
    token_base: Callable[[int], Hashable],
    token_pair: Callable[[int], Hashable],
    exhaustive: bool,
) -> list[_WeaveOutcome]:
    base_anchor, base_attr = base_projections[shared_key]
    pair_anchor, pair_attr = pair_projections[shared_key]
    if base_attr != pair_attr:
        return []
    if token_base(base_anchor) != token_pair(pair_anchor):
        return []
    sequence = pair_tree.traversal_order(pair_anchor)
    outcomes: list[_WeaveOutcome] = []

    def attach_tail(fused: dict[int, int], position: int) -> None:
        next_id = max(base_tree.vertices) + 1
        vertices = dict(base_tree.vertices)
        edges = list(base_tree.edges)
        attached: dict[int, int] = {}
        vertex_map = dict(fused)
        for index in range(position, len(sequence)):
            pair_vertex, edge = sequence[index]
            assert edge is not None
            result_vertex = next_id
            next_id += 1
            vertices[result_vertex] = pair_tree.relation_of(pair_vertex)
            attached[result_vertex] = pair_vertex
            vertex_map[pair_vertex] = result_vertex
            previous_pair = edge.other(pair_vertex)
            previous_result = vertex_map[previous_pair]
            source_vertex = (
                previous_result if edge.source_vertex == previous_pair else result_vertex
            )
            edges.append(
                JoinTreeEdge(
                    u=previous_result,
                    v=result_vertex,
                    fk_name=edge.fk_name,
                    source_vertex=source_vertex,
                )
            )
        tree = JoinTree(vertices, edges)
        outcomes.append(_WeaveOutcome(tree, vertex_map[sequence[-1][0]], attached))

    def recurse(
        position: int,
        current_base: int,
        fused: dict[int, int],
        visited: frozenset[int],
    ) -> None:
        if position == len(sequence):
            outcomes.append(_WeaveOutcome(base_tree, fused[sequence[-1][0]], {}))
            return
        pair_vertex, _edge = sequence[position]
        pair_token = token_pair(pair_vertex)
        fusable = [
            base_edge.other(current_base)
            for base_edge in base_tree.neighbors(current_base)
            if base_edge.other(current_base) not in visited
            and token_base(base_edge.other(current_base)) == pair_token
        ]
        if exhaustive or not fusable:
            attach_tail(fused, position)
        for neighbor in fusable:
            recurse(
                position + 1,
                neighbor,
                {**fused, pair_vertex: neighbor},
                visited | {neighbor},
            )

    recurse(1, base_anchor, {pair_anchor: base_anchor}, frozenset((base_anchor,)))
    return outcomes


def _far_key(pair_projections: dict[int, tuple[int, str]], shared_key: int) -> int:
    for key in pair_projections:
        if key != shared_key:
            return key
    raise ValueError("pairwise path does not have a second key")


def frozen_weave_tuple_paths(
    base: TuplePath, pair: TuplePath, shared_key: int, *, exhaustive: bool = False
) -> list[TuplePath]:
    """Every tuple path from weaving ``pair`` onto ``base``, built."""
    outcomes = _weave_generic(
        base.tree,
        base.projections,
        pair.tree,
        pair.projections,
        shared_key,
        base.tuple_at,
        pair.tuple_at,
        exhaustive,
    )
    far_key = _far_key(pair.projections, shared_key)
    far_attr = pair.projections[far_key][1]
    results = []
    for outcome in outcomes:
        rows = dict(base.rows)
        for result_vertex, pair_vertex in outcome.attached.items():
            rows[result_vertex] = pair.rows[pair_vertex]
        projections = dict(base.projections)
        projections[far_key] = (outcome.far_vertex, far_attr)
        results.append(TuplePath(outcome.tree, rows, projections))
    return results


def frozen_weave_complete_tuple_paths(
    ptpm: dict[tuple[int, int], list[TuplePath]],
    target_size: int,
    config: TPWConfig,
) -> tuple[list[TuplePath], dict[int, int], dict[int, int]]:
    """Algorithm 5 as it was: complete paths, woven and kept per level.

    The budget, tracing and explain hooks are left out: they do not
    change which paths a level keeps.
    """
    level: dict[object, TuplePath] = {}
    for tuple_paths in ptpm.values():
        for tuple_path in tuple_paths:
            level.setdefault(frozen_tuple_signature(tuple_path), tuple_path)

    anchor_index: dict[tuple, list[TuplePath]] = {}
    for tuple_path in level.values():
        for key, (vertex, attribute) in tuple_path.projections.items():
            anchor = (key, tuple_path.tuple_at(vertex), attribute)
            anchor_index.setdefault(anchor, []).append(tuple_path)

    woven_per_level: dict[int, int] = {}
    kept_per_level: dict[int, int] = {}
    current = level
    for size in range(2, target_size):
        next_level: dict[object, TuplePath] = {}
        woven = 0
        for base in current.values():
            for key, (vertex, attribute) in base.projections.items():
                anchor = (key, base.tuple_at(vertex), attribute)
                for pair in anchor_index.get(anchor, ()):
                    if _far_key(pair.projections, key) in base.keys:
                        continue
                    for result in frozen_weave_tuple_paths(
                        base, pair, key, exhaustive=config.exhaustive_weave
                    ):
                        woven += 1
                        next_level.setdefault(frozen_tuple_signature(result), result)
        woven_per_level[size + 1] = woven
        kept_per_level[size + 1] = len(next_level)
        current = next_level
    return list(current.values()), woven_per_level, kept_per_level
