"""Tuple paths (Definition 5): instance-level support for mappings.

A tuple path is a mapping path whose every vertex is bound to a concrete
source row, with adjacent rows actually joined by the edge's foreign
key.  A mapping path is *valid* iff at least one tuple path instantiates
it; TPW manufactures complete tuple paths by weaving pairwise ones and
only then extracts the mappings, which is where all its pruning power
comes from.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.canonical import Signature, encode_tree, tree_adjacency
from repro.core.mapping_path import MappingPath
from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.query import JoinTree
from repro.text.errors import ErrorModel


class TuplePath:
    """An instantiated mapping path.

    Parameters
    ----------
    tree:
        The relation path (shared shape with the mapping path).
    rows:
        Vertex id → source row id within the vertex's relation.
    projections:
        Target-column index → ``(vertex, attribute)``, exactly as in
        :class:`~repro.core.mapping_path.MappingPath`.
    """

    __slots__ = ("tree", "rows", "projections", "_signature")

    def __init__(
        self,
        tree: JoinTree,
        rows: Mapping[int, int],
        projections: Mapping[int, tuple[int, str]],
    ) -> None:
        if set(rows) != set(tree.vertices):
            raise QueryError("tuple path must bind every vertex to a row")
        if not projections:
            raise QueryError("a tuple path must project at least one column")
        self.tree = tree
        self.rows: dict[int, int] = dict(rows)
        self.projections: dict[int, tuple[int, str]] = dict(sorted(projections.items()))
        for key, (vertex, _attribute) in self.projections.items():
            if vertex not in tree.vertices:
                raise QueryError(f"projection of column {key} uses unknown vertex")
        self._signature: Signature | None = None

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of target columns projected."""
        return len(self.projections)

    @property
    def keys(self) -> frozenset[int]:
        """The projected target-column indexes."""
        return frozenset(self.projections)

    @property
    def n_joins(self) -> int:
        """Number of edges."""
        return self.tree.n_joins

    def tuple_at(self, vertex: int) -> tuple[str, int]:
        """``(relation, row id)`` — the paper's "universal tuple id"."""
        return (self.tree.relation_of(vertex), self.rows[vertex])

    def vertex_of_key(self, key: int) -> int:
        """The vertex projecting target column ``key``."""
        return self.projections[key][0]

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def vertex_labels(self) -> dict[int, tuple]:
        """Vertex → ``(relation, row id, ((key, attribute), ...))``.

        The labels the signature encodes; projections are listed in key
        order.
        """
        by_vertex: dict[int, list[tuple[int, str]]] = {}
        for key, (vertex, attribute) in self.projections.items():
            by_vertex.setdefault(vertex, []).append((key, attribute))
        return {
            vertex: (relation, self.rows[vertex], tuple(by_vertex.get(vertex, ())))
            for vertex, relation in self.tree.vertices.items()
        }

    def signature(self) -> Signature:
        """Canonical form, invariant under vertex renaming (cached)."""
        if self._signature is None:
            self._signature = encode_tree(
                self.vertex_labels(), tree_adjacency(self.tree)
            )
        return self._signature

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuplePath):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def projection_values(self, db: Database) -> dict[int, object]:
        """The tuple-path projection ``t_p`` (Definition 7): key → value."""
        values: dict[int, object] = {}
        for key, (vertex, attribute) in self.projections.items():
            relation = self.tree.relation_of(vertex)
            values[key] = db.table(relation).value(self.rows[vertex], attribute)
        return values

    def is_valid_for(
        self, db: Database, samples: Mapping[int, str], model: ErrorModel
    ) -> bool:
        """Definition 8: every projected value contains its sample.

        Columns without a sample (``key`` missing from ``samples``) are
        unconstrained.
        """
        for key, value in self.projection_values(db).items():
            sample = samples.get(key)
            if sample is None:
                continue
            if not model.contains(value, sample):
                return False
        return True

    def check_connected_in(self, db: Database) -> bool:
        """Verify every edge joins its two bound rows in ``db``.

        True by construction for paths produced by the engine; exposed
        for the soundness test suite.
        """
        for edge in self.tree.edges:
            source_vertex = edge.source_vertex
            target_vertex = edge.other(source_vertex)
            joined = db.joined_rows(
                edge.fk_name, self.rows[source_vertex], from_source=True
            )
            if self.rows[target_vertex] not in joined:
                return False
        return True

    def to_mapping_path(self) -> MappingPath:
        """Forget the rows: the mapping path this tuple path supports."""
        return MappingPath(self.tree, self.projections)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable one-liner with bound rows."""
        vertices = ", ".join(
            f"{self.tree.relation_of(vertex)}#{vertex}:t{row}"
            for vertex, row in sorted(self.rows.items())
        )
        projections = ", ".join(
            f"{key}->{self.tree.relation_of(vertex)}.{attribute}"
            for key, (vertex, attribute) in self.projections.items()
        )
        return f"[{vertices}] {{{projections}}}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TuplePath {self.describe()}>"
