"""Bounded walk enumeration over the schema graph.

Algorithm 3 of the paper ("Grow") runs a breadth-first search from a
sample-containing relation, depth-limited by ``PMNJ``, and reconstructs
a relation path whenever it reaches another sample-containing relation.
Crucially the BFS never marks vertices visited — it enumerates *walks*,
so the same relation may appear several times on a path (Definition 3
allows this).  :func:`enumerate_walks` is that enumeration, factored out
of the mapping layer so it can be tested and ablated in isolation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from repro.graphs.schema_graph import SchemaEdge, SchemaGraph


@dataclass(frozen=True)
class WalkStep:
    """One hop of a walk: traverse ``edge`` and arrive at ``to_relation``.

    ``from_is_source`` records whether the hop leaves the foreign key's
    source (referencing) side — needed to orient instance navigation
    when the edge is a self loop.
    """

    edge: SchemaEdge
    to_relation: str
    from_is_source: bool


@dataclass(frozen=True)
class Walk:
    """A walk on the schema graph: a start relation plus ordered steps."""

    start: str
    steps: tuple[WalkStep, ...] = ()

    @property
    def end(self) -> str:
        """The relation the walk currently stands on."""
        if self.steps:
            return self.steps[-1].to_relation
        return self.start

    @property
    def n_joins(self) -> int:
        """Number of edges traversed."""
        return len(self.steps)

    def relations(self) -> tuple[str, ...]:
        """Every relation on the walk, in visit order (with repeats)."""
        return (self.start, *(step.to_relation for step in self.steps))

    def extended(self, step: WalkStep) -> "Walk":
        """A new walk with ``step`` appended."""
        return Walk(self.start, self.steps + (step,))

    def describe(self) -> str:
        """``movie -direct- person`` style rendering."""
        parts = [self.start]
        for step in self.steps:
            parts.append(f"-{step.edge.name}-")
            parts.append(step.to_relation)
        return " ".join(parts)


def extension_edges(
    graph: SchemaGraph, walk: Walk, *, allow_backtrack: bool = False
) -> tuple[SchemaEdge, ...]:
    """The edges :func:`enumerate_walks` extends ``walk`` by.

    Every edge at ``walk.end``, except, with ``allow_backtrack=False``,
    the edge the walk just arrived by when that edge is not a self loop.
    """
    edges = graph.incident_edges(walk.end)
    if allow_backtrack or not walk.steps:
        return edges
    last_edge = walk.steps[-1].edge
    if last_edge.is_self_loop():
        return edges
    return tuple(edge for edge in edges if edge is not last_edge)


def enumerate_walks(
    graph: SchemaGraph,
    start: str,
    max_joins: int,
    *,
    allow_backtrack: bool = False,
) -> Iterator[Walk]:
    """Yield every walk from ``start`` with at most ``max_joins`` edges.

    The zero-length walk (just ``start``) is yielded first, then walks
    in breadth-first (shortest-first) order — the same order Algorithm 3
    discovers relation paths in, which keeps generated mapping paths
    deterministic.

    With ``allow_backtrack=False`` (the default) a walk never traverses
    the edge it just arrived by, *unless* that edge is a self loop (a
    self loop legitimately supports repeated traversal, e.g. a
    ``movie_link`` chain).  This removes U-turn walks, which only
    re-derive the tuples they came from.
    """
    queue: deque[Walk] = deque([Walk(start)])
    while queue:
        walk = queue.popleft()
        yield walk
        if walk.n_joins >= max_joins:
            continue
        for edge in extension_edges(graph, walk, allow_backtrack=allow_backtrack):
            if edge.is_self_loop():
                # A self loop can be traversed in either direction.
                for from_is_source in (True, False):
                    step = WalkStep(edge, walk.end, from_is_source)
                    queue.append(walk.extended(step))
            else:
                to_relation = edge.other(walk.end)
                from_is_source = edge.fk.source == walk.end
                step = WalkStep(edge, to_relation, from_is_source)
                queue.append(walk.extended(step))
