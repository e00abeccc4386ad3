"""Canonical encodings of labeled unrooted trees.

Weaving can construct the same tuple path along different orders (weave
``r3`` then ``r5``, or ``r5`` then ``r3``), and vertex ids are assigned
arbitrarily, so structural deduplication needs a canonical form that is
invariant under vertex renaming.

**Distinct labels.**  When a tree has two or more vertices and no two
share a label, the set of its ``(source label, fk name, target label)``
edge triples is already canonical.  The labels name the vertices, so
two such trees with equal triple sets are isomorphic through the map
that sends each vertex to the vertex with its label; every vertex lies
on an edge, so the set also fixes the vertices; and an isomorphism
preserves labels, so isomorphic trees have equal sets.  A tree with
distinct labels can only be isomorphic to another tree with distinct
labels, and the frozenset form never equals the tuple form below, so
the two forms never mix up two trees.  Most tuple paths qualify: a
repeated label means the same source tuple with the same projections at
two vertices (a person who both directed and wrote a movie).

**Repeated labels.**  Otherwise we use the classic AHU-style recursive
encoding of a rooted tree — a vertex's label plus the sorted encodings
of its child subtrees, each tagged with its edge label — and root it at
the tree's *centre*.  The centre is what remains after peeling all
leaves round after round: one vertex, or two adjacent ones.  It is
defined by the shape alone, so every isomorphism maps centres to
centres.  Taking the minimum encoding over the (at most two) centres
therefore gives equal signatures to isomorphic trees, and equal
signatures spell out a rooted isomorphism, so the form is canonical.
The minimum over *every* root gives the same equivalence but costs
``n`` encodings per tree, and that cost is not small: weave
deduplication signs tens of thousands of woven paths in a large search,
and an all-roots loop there took most of the search time.

Signatures are compared for equality and hashed; where a total order
is needed (a deterministic tie-break), :func:`signature_sort_key` gives
one that, like the signature, ignores vertex numbering.

The encoder takes plain data — a label per vertex and a neighbor list
per vertex — so the weave can sign a woven outcome before deciding to
build its :class:`~repro.relational.query.JoinTree`.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence

from repro.relational.query import JoinTree

#: A canonical signature: a frozenset of edge triples, or nested tuples.
Signature = Hashable

#: Neighbor list per vertex: ``(neighbor, fk_name, orientation)``, where
#: orientation is ``"down"`` when the FK points from the vertex to the
#: neighbor and ``"up"`` when it points back.
Adjacency = Mapping[int, Sequence[tuple[int, str, str]]]


def tree_adjacency(tree: JoinTree) -> dict[int, list[tuple[int, str, str]]]:
    """``tree``'s edges as an :data:`Adjacency`."""
    adjacency: dict[int, list[tuple[int, str, str]]] = {
        vertex: [] for vertex in tree.vertices
    }
    for edge in tree.edges:
        u_down = "down" if edge.source_vertex == edge.u else "up"
        v_down = "up" if u_down == "down" else "down"
        adjacency[edge.u].append((edge.v, edge.fk_name, u_down))
        adjacency[edge.v].append((edge.u, edge.fk_name, v_down))
    return adjacency


def tree_centres(adjacency: Adjacency) -> list[int]:
    """The one or two centre vertices, found by peeling leaves."""
    remaining = len(adjacency)
    if remaining <= 2:
        return list(adjacency)
    degree = {vertex: len(neighbors) for vertex, neighbors in adjacency.items()}
    leaves = [vertex for vertex, count in degree.items() if count == 1]
    while remaining > 2:
        remaining -= len(leaves)
        next_leaves = []
        for leaf in leaves:
            for neighbor, _fk_name, _orientation in adjacency[leaf]:
                degree[neighbor] -= 1
                if degree[neighbor] == 1:
                    next_leaves.append(neighbor)
        leaves = next_leaves
    return leaves


def encode_tree(
    labels: Mapping[int, Hashable],
    adjacency: Adjacency,
    centres: Sequence[int] | None = None,
) -> Signature:
    """Canonical form of the tree given by ``labels`` and ``adjacency``.

    A frozenset of edge triples when the tree has two or more vertices
    with distinct labels, else the centre-rooted AHU tuple.  ``centres``
    may pass :func:`tree_centres` of ``adjacency`` when the caller
    already has them.
    """
    if len(labels) > 1 and len(set(labels.values())) == len(labels):
        return frozenset(
            (labels[vertex], fk_name, labels[neighbor])
            for vertex, neighbors in adjacency.items()
            for neighbor, fk_name, orientation in neighbors
            if orientation == "down"
        )

    def encode(vertex: int, parent: int | None) -> tuple:
        children = [
            (fk_name, orientation, encode(neighbor, vertex))
            for neighbor, fk_name, orientation in adjacency[vertex]
            if neighbor != parent
        ]
        children.sort()
        return (labels[vertex], tuple(children))

    if centres is None:
        centres = tree_centres(adjacency)
    return min(encode(centre, None) for centre in centres)


def canonical_signature(
    tree: JoinTree,
    vertex_label: Callable[[int], Hashable],
) -> Signature:
    """Canonical form of ``tree`` under arbitrary vertex renaming.

    ``vertex_label`` maps a vertex id to the label that defines its
    identity — ``(relation, projections)`` for mapping paths, plus the
    row id for tuple paths.  Edge labels are the foreign-key name and
    its orientation relative to the traversal.

    Two trees have equal signatures iff there is a label- and
    edge-preserving isomorphism between them.
    """
    labels = {vertex: vertex_label(vertex) for vertex in tree.vertices}
    return encode_tree(labels, tree_adjacency(tree))


def signature_sort_key(signature: Signature) -> tuple:
    """A sortable form of ``signature``, invariant under vertex renaming.

    The edge-set form becomes its sorted triples and the AHU tuple stays
    as it is; a leading tag keeps the two forms from ever comparing
    with each other.
    """
    if isinstance(signature, frozenset):
        return (0, tuple(sorted(signature)))
    return (1, signature)
