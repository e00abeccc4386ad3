"""The interactive mapping session (Section 3, "Interaction Model").

A :class:`MappingSession` owns the input spreadsheet and the candidate
mapping set.  The user fills the first row completely, which triggers
the TPW sample search; every later cell prunes the candidates (Section
5) until exactly one mapping remains.

Extension beyond the paper (its Section 7 future work): a sample that
would invalidate *every* candidate is flagged as irrelevant.  The
default policy rejects the offending cell and keeps the candidate set
(``on_irrelevant="ignore"``); ``"apply"`` reproduces the paper's raw
semantics where such input simply empties the candidate set.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.config import TPWConfig
from repro.core.mapping_path import MappingPath
from repro.core.pruning import prune_by_attribute, prune_by_structure
from repro.core.ranking import RankedMapping
from repro.core.samples import Spreadsheet
from repro.core.tpw import SearchResult, TPWEngine
from repro.exceptions import SessionError
from repro.obs import get_logger, get_tracer
from repro.relational.database import Database
from repro.resilience.budget import NULL_BUDGET
from repro.text.errors import ErrorModel

_log = get_logger(__name__)


class SessionStatus(enum.Enum):
    """Lifecycle of a mapping session."""

    #: The first spreadsheet row is not fully populated yet.
    AWAITING_FIRST_ROW = "awaiting_first_row"
    #: Search ran; more than one candidate mapping remains.
    ACTIVE = "active"
    #: Exactly one candidate remains — the session's goal state.
    CONVERGED = "converged"
    #: No candidate survived (irrelevant samples or an impossible target).
    NO_CANDIDATES = "no_candidates"


@dataclass(frozen=True)
class SessionEvent:
    """One entry of the session's audit log."""

    kind: str
    message: str
    n_candidates: int


@dataclass
class _Timings:
    """Wall-clock per interaction kind, for the Table 2 benchmark."""

    search_seconds: list[float] = field(default_factory=list)
    prune_seconds: list[float] = field(default_factory=list)


class MappingSession:
    """Drives sample search and pruning from spreadsheet inputs."""

    def __init__(
        self,
        db: Database,
        columns: Sequence[str],
        *,
        config: TPWConfig | None = None,
        model: ErrorModel | None = None,
        on_irrelevant: str = "ignore",
        location_cache=None,
    ) -> None:
        if on_irrelevant not in ("ignore", "apply"):
            raise SessionError("on_irrelevant must be 'ignore' or 'apply'")
        self.engine = TPWEngine(db, config, model, location_cache=location_cache)
        self.spreadsheet = Spreadsheet(columns)
        self.on_irrelevant = on_irrelevant
        self.search_result: SearchResult | None = None
        self.events: list[SessionEvent] = []
        self.warnings: list[str] = []
        #: Message of the last failed :meth:`input` (cleared on success).
        self.last_error: str | None = None
        #: ``Budget.summary()`` of the most recent search, when it
        #: degraded (anytime semantics); ``None`` after a clean search.
        self.last_degradation: dict | None = None
        self.timings = _Timings()
        self._candidates: list[RankedMapping] = []
        #: (row, column, previous content) per applied input, for undo.
        self._undo_stack: list[tuple[int, int, str | None]] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def db(self) -> Database:
        """The source database the session maps from."""
        return self.engine.db

    @property
    def candidates(self) -> list[RankedMapping]:
        """Current candidate mappings, best ranked first."""
        return list(self._candidates)

    @property
    def candidate_mappings(self) -> list[MappingPath]:
        """Current candidate mapping paths, best ranked first."""
        return [candidate.mapping for candidate in self._candidates]

    @property
    def status(self) -> SessionStatus:
        """Current lifecycle state."""
        if self.search_result is None:
            return SessionStatus.AWAITING_FIRST_ROW
        if len(self._candidates) == 0:
            return SessionStatus.NO_CANDIDATES
        if len(self._candidates) == 1:
            return SessionStatus.CONVERGED
        return SessionStatus.ACTIVE

    @property
    def converged(self) -> bool:
        """Whether exactly one candidate remains."""
        return self.status is SessionStatus.CONVERGED

    def best_mapping(self) -> MappingPath | None:
        """The top-ranked candidate mapping, or ``None``."""
        if self._candidates:
            return self._candidates[0].mapping
        return None

    def sample_count(self) -> int:
        """Samples provided so far (the x-axis of Figure 12)."""
        return self.spreadsheet.sample_count()

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------

    def input(
        self, row: int, column: int, content: str, *, budget=NULL_BUDGET
    ) -> SessionStatus:
        """Apply one ``Input(row, column, content)`` event.

        Row 0 inputs accumulate until the first row is complete, which
        triggers the initial sample search; editing row 0 afterwards
        re-runs the search and replays all later rows.  Inputs below
        row 0 require the search to have run and prune incrementally.

        ``budget`` (a :class:`~repro.resilience.Budget`) threads into
        any search this input triggers: on exhaustion the search
        degrades to its best-effort candidates instead of raising, and
        :attr:`last_degradation` records why.

        Failures are atomic: if the search or pruning raises (budget
        exhaustion, a deadline interrupting a service request, …) the
        cell, undo history and candidate state all roll back to their
        pre-call values, :attr:`last_error` records the failure, and
        the exception propagates — the session stays usable.
        """
        if row > 0 and self.search_result is None:
            raise SessionError(
                "fill the first row completely before adding more samples"
            )
        previous = self.spreadsheet.cell(row, column)
        prior_result = self.search_result
        prior_candidates = list(self._candidates)
        prior_degradation = self.last_degradation
        self.spreadsheet.set_cell(row, column, content)
        self._undo_stack.append((row, column, previous))
        self._log("input", f"({row}, {column}) <- {content.strip()!r}")
        try:
            self._apply_input(row, column, content, previous, budget=budget)
        except Exception as error:
            self.spreadsheet.set_cell(row, column, previous or "")
            if self._undo_stack and self._undo_stack[-1] == (row, column, previous):
                self._undo_stack.pop()
            self.search_result = prior_result
            self._candidates = prior_candidates
            self.last_degradation = prior_degradation
            self.last_error = f"{type(error).__name__}: {error}"
            self._log("error", f"input rolled back: {self.last_error}")
            raise
        self.last_error = None
        return self.status

    def _apply_input(
        self,
        row: int,
        column: int,
        content: str,
        previous: str | None,
        *,
        budget=NULL_BUDGET,
    ) -> None:
        """The state-mutating body of :meth:`input` (see its contract)."""
        if row == 0:
            if self.spreadsheet.first_row_complete():
                self._run_search(budget=budget)
                self._replay_pruning()
            return

        stripped = content.strip()
        if not stripped or (previous is not None and previous != stripped):
            # Clearing or rewriting a cell can only be handled by
            # replaying every prune from the search result.  Replay is
            # self-healing: a transiently inconsistent row (the user is
            # editing cell by cell) empties the candidate set and then
            # recovers on the next edit, so no rejection policy applies
            # here — only a warning.
            self._replay_pruning()
            if not self._candidates and stripped:
                self._warn(
                    f"sample {stripped!r} in column "
                    f"{self.spreadsheet.columns[column]!r} currently "
                    f"contradicts every candidate"
                )
            return

        self._prune_with_cell(row, column, stripped, revert_on_empty=True)

    def load_cells(self, cells: Mapping[tuple[int, int], str]) -> SessionStatus:
        """Replace the whole grid and recompute the session state.

        Used by persistence restore: cells are written directly (no
        per-cell policy decisions — they already passed them when the
        session was live), then the search and pruning replay once.
        The undo history does not survive a restore.
        """
        for (row, column), content in sorted(cells.items()):
            self.spreadsheet.set_cell(row, column, content)
        self._undo_stack.clear()
        if self.spreadsheet.first_row_complete():
            self._run_search()
            self._replay_pruning()
        else:
            self.search_result = None
            self._candidates = []
        return self.status

    def input_named(
        self,
        row: int,
        column_name: str,
        content: str,
        *,
        budget=NULL_BUDGET,
    ) -> SessionStatus:
        """:meth:`input` addressing the column by name."""
        return self.input(
            row,
            self.spreadsheet.column_index(column_name),
            content,
            budget=budget,
        )

    def undo(self) -> SessionStatus:
        """Revert the most recent input and recompute the candidates.

        Restores the cell's previous content, then re-runs the search
        and/or pruning as needed.  Undoing the input that completed the
        first row returns the session to the awaiting state (later-row
        samples stay in the grid and replay once the first row is
        complete again).  Raises
        :class:`~repro.exceptions.SessionError` with nothing to undo.
        """
        if not self._undo_stack:
            raise SessionError("nothing to undo")
        row, column, previous = self._undo_stack.pop()
        self.spreadsheet.set_cell(row, column, previous or "")
        self._log("undo", f"({row}, {column}) -> {previous!r}")
        if row == 0 and not self.spreadsheet.first_row_complete():
            self.search_result = None
            self._candidates = []
        elif row == 0:
            self._run_search()
            self._replay_pruning()
        else:
            self._replay_pruning()
        return self.status

    def suggest(
        self, row: int, column: int, prefix: str = "", *, limit: int = 10
    ) -> list[str]:
        """Auto-completion: values that keep at least one candidate alive.

        Requires the initial search to have run.  When the row already
        holds other samples, suggestions are additionally constrained
        to values co-producible with them (§7 "suggest relevant data");
        otherwise any value of the candidates' projected attributes
        matching ``prefix`` qualifies.
        """
        from repro.core.suggest import suggest_row_values, suggest_values

        if self.search_result is None:
            return []
        others = {
            key: sample
            for key, sample in self.spreadsheet.row_samples(row).items()
            if key != column
        }
        if others:
            return suggest_row_values(
                self.db,
                self.candidate_mappings,
                others,
                column,
                prefix,
                limit=limit,
                model=self.engine.model,
            )
        return suggest_values(
            self.db, self.candidate_mappings, column, prefix, limit=limit
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _log(self, kind: str, message: str) -> None:
        self.events.append(SessionEvent(kind, message, len(self._candidates)))

    def _run_search(self, *, budget=NULL_BUDGET) -> None:
        sample_tuple = self.spreadsheet.first_row()
        with get_tracer().span("session.search") as span:
            self.search_result = self.engine.search(sample_tuple, budget=budget)
            span.set("candidates", self.search_result.n_candidates)
            span.set("search_id", self.search_result.search_id)
        self.timings.search_seconds.append(span.duration)
        self.last_degradation = self.search_result.degradation
        if self.search_result.degraded:
            self._warn(
                "search degraded: best-effort candidates only "
                f"({(self.search_result.degradation or {}).get('reason')})"
            )
        self._candidates = list(self.search_result.candidates)
        if self.search_result.location_map.empty_keys():
            missing = ", ".join(
                self.spreadsheet.columns[key]
                for key in self.search_result.location_map.empty_keys()
            )
            self._warn(f"samples not found anywhere in the source: {missing}")
        self._log("search", f"{len(self._candidates)} candidate mappings")

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        self._log("warning", message)
        _log.warning("%s", message)

    def _filter_candidates(self, kept: Sequence[MappingPath]) -> list[RankedMapping]:
        signatures = {mapping.signature() for mapping in kept}
        return [
            candidate
            for candidate in self._candidates
            if candidate.mapping.signature() in signatures
        ]

    def _prune_with_cell(
        self, row: int, column: int, sample: str, *, revert_on_empty: bool
    ) -> None:
        with get_tracer().span("session.prune", row=row, column=column) as span:
            mappings = self.candidate_mappings
            kept = prune_by_attribute(
                self.db, mappings, column, sample, self.engine.model
            )
            row_samples = self.spreadsheet.row_samples(row)
            if len(row_samples) >= 2:
                kept = prune_by_structure(
                    self.db, kept, row_samples, self.engine.model
                )
            span.set("kept", len(kept))
        self.timings.prune_seconds.append(span.duration)

        if not kept and revert_on_empty and self.on_irrelevant == "ignore":
            self.spreadsheet.set_cell(row, column, "")
            if self._undo_stack:
                self._undo_stack.pop()  # a rejected input is not undoable
            self._warn(
                f"sample {sample!r} in column "
                f"{self.spreadsheet.columns[column]!r} contradicts every "
                f"candidate; ignoring it"
            )
            return
        self._candidates = self._filter_candidates(kept)
        self._log("prune", f"{len(self._candidates)} candidates remain")

    def _replay_pruning(self) -> None:
        """Recompute the candidate set from the search result and grid."""
        if self.search_result is None:
            return
        with get_tracer().span("session.replay") as span:
            self._candidates = list(self.search_result.candidates)
            mappings = self.candidate_mappings
            for row, row_samples in self.spreadsheet.occupied_rows():
                if row == 0:
                    continue
                for column, sample in row_samples.items():
                    mappings = prune_by_attribute(
                        self.db, mappings, column, sample, self.engine.model
                    )
                if len(row_samples) >= 2:
                    mappings = prune_by_structure(
                        self.db, mappings, row_samples, self.engine.model
                    )
            span.set("kept", len(mappings))
        self.timings.prune_seconds.append(span.duration)
        self._candidates = self._filter_candidates(mappings)
        self._log("prune", f"{len(self._candidates)} candidates remain (replay)")

    def materialize(
        self,
        *,
        relation_name: str = "target",
        distinct: bool = False,
        limit: int = 0,
    ) -> Database:
        """Execute the converged mapping into a fresh target database.

        Column names come from the spreadsheet.  Raises
        :class:`~repro.exceptions.SessionError` unless exactly one
        candidate remains (materialising an ambiguous mapping would
        silently pick one).
        """
        from repro.core.materialize import materialize_mapping

        if not self.converged:
            raise SessionError(
                f"cannot materialize: session is {self.status.value}"
            )
        mapping = self.best_mapping()
        assert mapping is not None
        return materialize_mapping(
            mapping,
            self.db,
            relation_name=relation_name,
            column_names=list(self.spreadsheet.columns),
            distinct=distinct,
            limit=limit,
        )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line status summary (mirrors the UI's information bar)."""
        lines = [
            f"status: {self.status.value}",
            f"samples: {self.sample_count()}",
            f"candidates: {len(self._candidates)}",
        ]
        for candidate in self._candidates[:5]:
            lines.append(f"  {candidate.describe()}")
        if len(self._candidates) > 5:
            lines.append(f"  ... and {len(self._candidates) - 5} more")
        return "\n".join(lines)
