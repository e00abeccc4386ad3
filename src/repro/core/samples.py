"""The input spreadsheet model (Section 3, "User Interface").

The user's only artifact is a spreadsheet whose columns are the target
schema and whose non-empty cells are *samples*.  ``Input(i, j, c)``
events update cells; the first row must be fully populated before the
initial sample search runs (the paper requires this "to establish a
general impression of the complete desired mapping").
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import SessionError

#: The first row of samples, ``t_E = (E_1, ..., E_m)`` in paper notation.
SampleTuple = tuple[str, ...]


class Spreadsheet:
    """A sparse grid of sample strings under a fixed column list."""

    def __init__(self, columns: Sequence[str]) -> None:
        if not columns:
            raise SessionError("the target schema needs at least one column")
        seen = set()
        for column in columns:
            if not column:
                raise SessionError("column names must be non-empty")
            if column in seen:
                raise SessionError(f"duplicate column name {column!r}")
            seen.add(column)
        self.columns: tuple[str, ...] = tuple(columns)
        self._cells: dict[tuple[int, int], str] = {}

    @property
    def n_columns(self) -> int:
        """Target schema size ``m``."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Index of column ``name``."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise SessionError(f"unknown column {name!r}") from None

    def set_cell(self, row: int, column: int, content: str) -> None:
        """Apply ``Input(row, column, content)``.

        Setting a cell to the empty string clears it (empty cells are
        not samples, Section 3).
        """
        if row < 0:
            raise SessionError("row index must be non-negative")
        if not 0 <= column < self.n_columns:
            raise SessionError(f"column index {column} out of range")
        stripped = content.strip()
        if stripped:
            self._cells[(row, column)] = stripped
        else:
            self._cells.pop((row, column), None)

    def cell(self, row: int, column: int) -> str | None:
        """The sample at ``(row, column)`` or ``None`` if empty."""
        return self._cells.get((row, column))

    def cells(self) -> dict[tuple[int, int], str]:
        """A copy of the grid: ``(row, column) -> sample``.

        The serialized form the journal and the cluster's replica
        shipping use; feeding it back through
        :meth:`~repro.core.session.MappingSession.load_cells` rebuilds
        an identical session.
        """
        return dict(self._cells)

    def row_samples(self, row: int) -> dict[int, str]:
        """Non-empty cells of ``row`` as column-index → sample."""
        return {
            column: content
            for (cell_row, column), content in sorted(self._cells.items())
            if cell_row == row
        }

    def occupied_rows(self) -> list[tuple[int, dict[int, str]]]:
        """Rows that hold a sample, ascending, as ``(row, row_samples)``.

        One pass over the cells: the cost follows the number of samples,
        not the largest row index, which a client may set to anything.
        """
        rows: dict[int, dict[int, str]] = {}
        for (row, column), content in sorted(self._cells.items()):
            rows.setdefault(row, {})[column] = content
        return list(rows.items())

    def first_row_complete(self) -> bool:
        """Whether every cell of row 0 is populated."""
        return all((0, column) in self._cells for column in range(self.n_columns))

    def first_row(self) -> SampleTuple:
        """The sample tuple ``t_E`` from row 0.

        Raises :class:`~repro.exceptions.SessionError` when incomplete.
        """
        if not self.first_row_complete():
            missing = [
                self.columns[column]
                for column in range(self.n_columns)
                if (0, column) not in self._cells
            ]
            raise SessionError(f"first row incomplete; missing {missing}")
        return tuple(self._cells[(0, column)] for column in range(self.n_columns))

    def sample_count(self) -> int:
        """Total number of non-empty cells (the x-axis of Figure 12)."""
        return len(self._cells)

    def describe(self) -> str:
        """The header, then one tab-separated line per row with a sample."""
        lines = ["\t".join(self.columns)]
        for _row, samples in self.occupied_rows():
            lines.append(
                "\t".join(
                    samples.get(column, "") for column in range(self.n_columns)
                )
            )
        return "\n".join(lines)
