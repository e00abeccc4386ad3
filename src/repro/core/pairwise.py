"""Pairwise mapping path generation (Algorithms 2–4).

For every pair of sample indexes ``i < j``, we enumerate all mapping
paths that project sample ``i``'s attribute at one end and sample
``j``'s attribute at the other, joined through at most ``PMNJ``
foreign-key edges.  The enumeration is a bounded breadth-first walk of
the schema graph from each relation containing sample ``i`` (Algorithm
3, "Grow"); each walk reaching a relation containing sample ``j`` is
turned into mapping paths by the attribute cross-product of Algorithm 4
("Create").

The generated paths need no deduplication: within one ``(i, j)``
bucket, two distinct walks or attribute choices never give isomorphic
mapping paths.  Vertex 0 is the only vertex projecting key ``i`` (a
zero-join path has one vertex), so an isomorphism must map it to vertex
0 and cannot reverse the chain.  From there it must follow each step's
FK name, which names one schema edge because the schema rejects
duplicate FK names, and the step's orientation, which the edge label
keeps even for a self loop.  So an isomorphism between two such paths
makes their walks and attributes equal.

Everything here except assembling the buckets is schema-only: the walks
from a start relation under ``(PMNJ, allow_backtrack)``, each walk's join
tree and whether the bound truncated it, and the mapping paths Algorithm
4 builds from a walk and the two keys' attribute tuples.  An interactive
mapper runs many searches, each in its own session and engine, over one
schema, so that work is memoized per
:class:`~repro.relational.schema.DatabaseSchema`, in a map weakly keyed
by the schema so that an entry dies with its schema.  This is sound
because:

* each memoized value is a function of its key alone.  The schema graph
  is built deterministically from the schema, and the location map
  enters only through the attribute tuples that are part of the key;
* a schema has no mutators after construction;
* entries are stored fully built, as tuples, and shared read-only.  No
  code mutates a cached :class:`MappingPath` or its join tree, and the
  buckets handed to callers are fresh lists.

Two threads that miss on the same key build equal values and the first
one stored wins (``dict.setdefault`` is atomic), so concurrent sessions
need no lock.
"""

from __future__ import annotations

import weakref

from repro.config import TPWConfig
from repro.core.location import LocationMap
from repro.core.mapping_path import MappingPath
from repro.graphs.schema_graph import SchemaGraph
from repro.graphs.walks import Walk, enumerate_walks, extension_edges
from repro.obs import get_metrics, get_tracer
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.relational.schema import DatabaseSchema
from repro.resilience.budget import NULL_BUDGET

#: Pairwise Mapping Path Map: key pair -> mapping paths (paper: PMPM).
PairwiseMappingPathMap = dict[tuple[int, int], list[MappingPath]]


def walk_to_tree(walk: Walk) -> JoinTree:
    """Materialise a schema-graph walk as a join tree (a simple path).

    Vertex ``p`` is the walk's ``p``-th relation occurrence, so repeated
    relations become distinct vertices, exactly as Definition 3 allows.
    """
    vertices = {
        position: relation for position, relation in enumerate(walk.relations())
    }
    edges = []
    for position, step in enumerate(walk.steps):
        source_vertex = position if step.from_is_source else position + 1
        edges.append(
            JoinTreeEdge(
                u=position,
                v=position + 1,
                fk_name=step.edge.name,
                source_vertex=source_vertex,
            )
        )
    return JoinTree(vertices, edges)


def _create_mapping_paths(
    tree: JoinTree,
    key_i: int,
    attributes_i: tuple[str, ...],
    key_j: int,
    attributes_j: tuple[str, ...],
) -> tuple[MappingPath, ...]:
    """Algorithm 4: attribute cross-product over one relation path.

    ``tree`` is a walk's join tree; key ``i`` projects at its start
    (vertex 0) and key ``j`` at its end (the last vertex).
    """
    end_vertex = tree.n_joins
    return tuple(
        MappingPath(
            tree, {key_i: (0, attribute_i), key_j: (end_vertex, attribute_j)}
        )
        for attribute_i in attributes_i
        for attribute_j in attributes_j
    )


class _CachedWalk:
    """One enumerated walk with its schema-only products (see module doc).

    ``truncated`` says whether the PMNJ bound cut the walk off while
    :func:`~repro.graphs.walks.enumerate_walks` would have extended it.
    """

    __slots__ = ("walk", "end", "tree", "truncated", "_paths")

    def __init__(
        self, graph: SchemaGraph, walk: Walk, pmnj: int, allow_backtrack: bool
    ) -> None:
        self.walk = walk
        self.end = walk.end
        self.tree = walk_to_tree(walk)
        self.truncated = walk.n_joins >= pmnj and bool(
            extension_edges(graph, walk, allow_backtrack=allow_backtrack)
        )
        self._paths: dict[tuple, tuple[MappingPath, ...]] = {}

    def mapping_paths(
        self,
        key_i: int,
        attributes_i: tuple[str, ...],
        key_j: int,
        attributes_j: tuple[str, ...],
    ) -> tuple[MappingPath, ...]:
        """The (shared, read-only) mapping paths Algorithm 4 builds here."""
        key = (key_i, attributes_i, key_j, attributes_j)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._paths.setdefault(
                key,
                _create_mapping_paths(
                    self.tree, key_i, attributes_i, key_j, attributes_j
                ),
            )
        return paths


class _SchemaMemo:
    """The memoized walks of one schema, by start, PMNJ and backtracking."""

    def __init__(self) -> None:
        self._walks: dict[tuple[str, int, bool], tuple[_CachedWalk, ...]] = {}

    def walks(
        self, graph: SchemaGraph, start: str, pmnj: int, allow_backtrack: bool
    ) -> tuple[_CachedWalk, ...]:
        """The walks from ``start``, in :func:`enumerate_walks` order."""
        key = (start, pmnj, allow_backtrack)
        walks = self._walks.get(key)
        if walks is None:
            walks = self._walks.setdefault(
                key,
                tuple(
                    _CachedWalk(graph, walk, pmnj, allow_backtrack)
                    for walk in enumerate_walks(
                        graph, start, pmnj, allow_backtrack=allow_backtrack
                    )
                ),
            )
        return walks


_MEMO: "weakref.WeakKeyDictionary[DatabaseSchema, _SchemaMemo]" = (
    weakref.WeakKeyDictionary()
)


def _schema_memo(schema: DatabaseSchema) -> _SchemaMemo:
    memo = _MEMO.get(schema)
    if memo is None:
        memo = _MEMO.setdefault(schema, _SchemaMemo())
    return memo


def generate_pairwise_mapping_paths(
    graph: SchemaGraph,
    location_map: LocationMap,
    config: TPWConfig,
    budget=NULL_BUDGET,
) -> PairwiseMappingPathMap:
    """Algorithm 2: build the pairwise mapping path map ``PMPM``.

    For each key pair ``(i, j)`` with ``i < j`` the result lists every
    mapping path of size two that joins an attribute containing sample
    ``i`` to an attribute containing sample ``j`` within the PMNJ bound;
    no two are isomorphic (see the module docstring).  Entries with no
    paths are omitted.  The walks and mapping paths come from the
    memo of ``graph.schema`` (see the module docstring); the listed
    paths are shared with other searches and must not be mutated.

    With tracing enabled, the open span (``tpw.pairwise`` in a search)
    records the PMNJ frontier: walks truncated at the join bound while
    :func:`~repro.graphs.walks.enumerate_walks` would have extended
    them, i.e. where enumeration provably stopped.  Per-path decisions
    are recorded once each path is queried, by
    :func:`~repro.core.instantiate.create_pairwise_tuple_paths`.

    ``budget`` (a :class:`~repro.resilience.Budget`) is checked once per
    enumerated walk; on exhaustion the map built so far is returned and
    a ``pairwise`` degradation records how many sample keys were never
    explored (anytime semantics — never raises).
    """
    memo = _schema_memo(graph.schema)
    span = get_tracer().current()
    m = len(location_map.samples)
    buckets: PairwiseMappingPathMap = {}
    walks_seen = 0
    paths_made = 0
    try:
        for key_i in range(m):
            for start_relation in location_map.relations_of(key_i):
                attributes_i = location_map.attributes_in_relation(
                    key_i, start_relation
                )
                for cached in memo.walks(
                    graph, start_relation, config.pmnj, config.allow_backtrack
                ):
                    if budget.exhausted():
                        budget.stop(
                            "pairwise",
                            walks_explored=walks_seen,
                            keys_unexplored=m - key_i - 1,
                        )
                        return dict(sorted(buckets.items()))
                    walks_seen += 1
                    budget.charge()
                    if span is not None and cached.truncated:
                        span.add("pmnj_frontier_total")
                        span.record(
                            "pmnj_frontier",
                            {
                                "key": key_i,
                                "walk": cached.walk.describe(),
                                "depth": cached.walk.n_joins,
                                "reason": "pmnj",
                            },
                        )
                    for key_j in range(key_i + 1, m):
                        attributes_j = location_map.attributes_in_relation(
                            key_j, cached.end
                        )
                        if not attributes_j:
                            continue
                        paths = cached.mapping_paths(
                            key_i, attributes_i, key_j, attributes_j
                        )
                        buckets.setdefault((key_i, key_j), []).extend(paths)
                        paths_made += len(paths)
    finally:
        metrics = get_metrics()
        metrics.counter("repro.pairwise.walks").inc(walks_seen)
        metrics.counter("repro.pairwise.mapping_paths").inc(paths_made)
    return dict(sorted(buckets.items()))


def count_pairwise_paths(pmpm: PairwiseMappingPathMap) -> int:
    """Total number of pairwise mapping paths across all key pairs."""
    return sum(len(paths) for paths in pmpm.values())
