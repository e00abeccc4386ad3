"""Evaluator for join-tree queries with containment predicates.

This implements the engine's only physical plan, specialised for the
shapes TPW generates: pick the most selective predicate vertex as the
root, seed it from the inverted index, then extend the assignment along
the tree using foreign-key adjacency, backtracking on dead ends.  Tree
shape means no cross products ever form, and ``tree_exists`` gets an
early exit for the pruning path (Section 5, "pruning by mapping
structure").

A caller that runs many queries over the same samples may pass a
``probes`` dict: each (relation, attribute, sample, model) text probe is
then resolved once and its row set reused by later queries.  The dict
belongs to the caller and lives no longer than its call, so the shared
:class:`~repro.relational.database.Database` stays read-only.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.relational.database import Database
from repro.relational.query import ContainsPredicate, JoinTree
from repro.text.errors import ErrorModel

#: Resolved text probes: (relation, attribute, sample, model) → row ids.
ProbeMemo = dict[tuple[str, str, str, ErrorModel], frozenset[int]]


def _vertex_candidates(
    db: Database,
    tree: JoinTree,
    predicates: Sequence[ContainsPredicate],
    probes: ProbeMemo | None = None,
) -> dict[int, frozenset[int] | None]:
    """Per-vertex candidate row sets from the text indexes.

    ``None`` means unconstrained (any row of the vertex's relation).
    A vertex with several predicates gets the intersection.  A probe
    already in ``probes`` is not searched again; a new one is added.
    """
    candidates: dict[int, frozenset[int] | None] = {
        vid: None for vid in tree.vertices
    }
    for predicate in predicates:
        relation = tree.relation_of(predicate.vertex)
        key = (relation, predicate.attribute, predicate.sample, predicate.model)
        rows = None if probes is None else probes.get(key)
        if rows is None:
            rows = frozenset(
                db.search_attribute(
                    relation, predicate.attribute, predicate.sample, predicate.model
                )
            )
            if probes is not None:
                probes[key] = rows
        existing = candidates[predicate.vertex]
        candidates[predicate.vertex] = rows if existing is None else existing & rows
    return candidates


def _pick_root(
    db: Database,
    tree: JoinTree,
    candidates: dict[int, frozenset[int] | None],
) -> int:
    """Root the evaluation at the most selective vertex."""
    best_vertex = None
    best_size = None
    for vertex in tree.vertices:
        rows = candidates[vertex]
        size = len(db.table(tree.relation_of(vertex))) if rows is None else len(rows)
        if best_size is None or size < best_size:
            best_vertex, best_size = vertex, size
    assert best_vertex is not None
    return best_vertex


def iterate_assignments(
    db: Database,
    tree: JoinTree,
    predicates: Sequence[ContainsPredicate] = (),
    *,
    probes: ProbeMemo | None = None,
) -> Iterator[dict[int, int]]:
    """Yield every assignment ``vertex id → row id`` satisfying the query.

    An assignment binds each tree vertex to a row of its relation such
    that every edge joins its two rows via its foreign key and every
    predicate holds.  Assignments are yielded in a deterministic order.
    ``probes`` is the caller's probe memo (see the module docstring).
    """
    candidates = _vertex_candidates(db, tree, predicates, probes)
    if any(rows is not None and not rows for rows in candidates.values()):
        return
    root = _pick_root(db, tree, candidates)
    order = tree.traversal_order(root)

    root_rows = candidates[root]
    if root_rows is None:
        root_iter: Sequence[int] = db.table(tree.relation_of(root)).row_ids()
    else:
        root_iter = sorted(root_rows)

    assignment: dict[int, int] = {}

    def extend(position: int) -> Iterator[dict[int, int]]:
        if position == len(order):
            yield dict(assignment)
            return
        vertex, edge = order[position]
        assert edge is not None  # the root is handled by the caller
        parent = edge.other(vertex)
        parent_row = assignment[parent]
        joined = db.joined_rows(
            edge.fk_name, parent_row, from_source=edge.leaving_source(parent)
        )
        allowed = candidates[vertex]
        for row_id in joined:
            if allowed is not None and row_id not in allowed:
                continue
            assignment[vertex] = row_id
            yield from extend(position + 1)
            del assignment[vertex]

    for root_row in root_iter:
        assignment[root] = root_row
        yield from extend(1)
        del assignment[root]


def evaluate_tree(
    db: Database,
    tree: JoinTree,
    predicates: Sequence[ContainsPredicate] = (),
    *,
    limit: int = 0,
    probes: ProbeMemo | None = None,
) -> list[dict[int, int]]:
    """Materialise assignments; ``limit=0`` means all of them."""
    results: list[dict[int, int]] = []
    for assignment in iterate_assignments(db, tree, predicates, probes=probes):
        results.append(assignment)
        if limit and len(results) >= limit:
            break
    return results


def tree_exists(
    db: Database,
    tree: JoinTree,
    predicates: Sequence[ContainsPredicate] = (),
    *,
    probes: ProbeMemo | None = None,
) -> bool:
    """Whether at least one satisfying assignment exists (early exit)."""
    for _ in iterate_assignments(db, tree, predicates, probes=probes):
        return True
    return False


@dataclass(frozen=True)
class PlanExplanation:
    """How the evaluator would run one tree query.

    ``candidate_sizes`` maps each vertex to the number of rows its
    predicates leave eligible (or the full table size when
    unconstrained); ``root`` is the most selective vertex, where the
    evaluation starts; ``binding_order`` lists vertices in the order
    they get bound.
    """

    root: int
    binding_order: tuple[int, ...]
    candidate_sizes: dict[int, int]

    def describe(self, tree: JoinTree) -> str:
        """Human-readable plan rendering."""
        lines = [
            f"root: {tree.relation_of(self.root)}#{self.root} "
            f"({self.candidate_sizes[self.root]} candidate rows)"
        ]
        for vertex in self.binding_order[1:]:
            lines.append(
                f"then bind {tree.relation_of(vertex)}#{vertex} via FK "
                f"adjacency ({self.candidate_sizes[vertex]} eligible rows)"
            )
        return "\n".join(lines)


def explain_tree(
    db: Database,
    tree: JoinTree,
    predicates: Sequence[ContainsPredicate] = (),
) -> PlanExplanation:
    """Explain the plan :func:`iterate_assignments` would use.

    Runs the same selectivity analysis and root selection as the
    evaluator, without enumerating any assignment — useful for
    understanding why a search is slow and for testing the planner.
    """
    candidates = _vertex_candidates(db, tree, predicates)
    sizes = {
        vertex: (
            len(db.table(tree.relation_of(vertex))) if rows is None else len(rows)
        )
        for vertex, rows in candidates.items()
    }
    root = _pick_root(db, tree, candidates)
    order = tuple(vertex for vertex, _edge in tree.traversal_order(root))
    return PlanExplanation(root=root, binding_order=order, candidate_sizes=sizes)


def project_assignment(
    db: Database,
    tree: JoinTree,
    assignment: dict[int, int],
    projections: Sequence[tuple[int, str]],
) -> tuple[object, ...]:
    """Project ``(vertex, attribute)`` pairs out of one assignment."""
    values = []
    for vertex, attribute in projections:
        relation = tree.relation_of(vertex)
        values.append(db.table(relation).value(assignment[vertex], attribute))
    return tuple(values)
