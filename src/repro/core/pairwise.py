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
"""

from __future__ import annotations

from repro.config import TPWConfig
from repro.core.location import LocationMap
from repro.core.mapping_path import MappingPath
from repro.graphs.schema_graph import SchemaGraph
from repro.graphs.walks import Walk, enumerate_walks
from repro.obs import get_metrics
from repro.obs.explain import NULL_EXPLAIN
from repro.relational.query import JoinTree, JoinTreeEdge
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
    walk: Walk,
    location_map: LocationMap,
    key_i: int,
    key_j: int,
) -> list[MappingPath]:
    """Algorithm 4: attribute cross-product over one relation path."""
    attributes_i = location_map.attributes_in_relation(key_i, walk.start)
    attributes_j = location_map.attributes_in_relation(key_j, walk.end)
    if not attributes_i or not attributes_j:
        return []
    tree = walk_to_tree(walk)
    end_vertex = walk.n_joins
    paths = []
    for attribute_i in attributes_i:
        for attribute_j in attributes_j:
            paths.append(
                MappingPath(
                    tree,
                    {key_i: (0, attribute_i), key_j: (end_vertex, attribute_j)},
                )
            )
    return paths


def generate_pairwise_mapping_paths(
    graph: SchemaGraph,
    location_map: LocationMap,
    config: TPWConfig,
    explain=NULL_EXPLAIN,
    budget=NULL_BUDGET,
) -> PairwiseMappingPathMap:
    """Algorithm 2: build the pairwise mapping path map ``PMPM``.

    For each key pair ``(i, j)`` with ``i < j`` the result lists every
    mapping path of size two that joins an attribute containing sample
    ``i`` to an attribute containing sample ``j`` within the PMNJ bound;
    no two are isomorphic (see the module docstring).  Entries with no
    paths are omitted.

    ``explain`` (an :class:`~repro.obs.explain.ExplainRecorder` during a
    traced search) receives a kept decision per generated path and the
    PMNJ frontier: walks truncated at the join bound while unexplored
    edges remained, i.e. where enumeration provably stopped.

    ``budget`` (a :class:`~repro.resilience.Budget`) is checked once per
    enumerated walk; on exhaustion the map built so far is returned and
    a ``pairwise`` degradation records how many sample keys were never
    explored (anytime semantics — never raises).
    """
    metrics = get_metrics()
    walk_counter = metrics.counter("repro.pairwise.walks")
    path_counter = metrics.counter("repro.pairwise.mapping_paths")
    m = len(location_map.samples)
    buckets: PairwiseMappingPathMap = {}
    walks_seen = 0
    for key_i in range(m):
        for start_relation in location_map.relations_of(key_i):
            for walk in enumerate_walks(
                graph,
                start_relation,
                config.pmnj,
                allow_backtrack=config.allow_backtrack,
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
                walk_counter.inc()
                if (
                    explain.enabled
                    and walk.n_joins >= config.pmnj
                    and graph.incident_edges(walk.end)
                ):
                    explain.pmnj_frontier(key_i, walk)
                for key_j in range(key_i + 1, m):
                    if not location_map.attributes_in_relation(key_j, walk.end):
                        continue
                    paths = _create_mapping_paths(walk, location_map, key_i, key_j)
                    buckets.setdefault((key_i, key_j), []).extend(paths)
                    path_counter.inc(len(paths))
                    if explain.enabled:
                        for path in paths:
                            explain.pairwise_decision((key_i, key_j), path, "kept")
    return dict(sorted(buckets.items()))


def count_pairwise_paths(pmpm: PairwiseMappingPathMap) -> int:
    """Total number of pairwise mapping paths across all key pairs."""
    return sum(len(paths) for paths in pmpm.values())
