"""Tests for the interactive mapping session (Section 3)."""

import threading

import pytest

from repro.core.persistence import session_to_dict
from repro.core.session import MappingSession, SessionStatus
from repro.exceptions import SessionError


@pytest.fixture()
def session(running_db):
    return MappingSession(running_db, ["Name", "Director"])


class TestLifecycle:
    def test_initial_state(self, session):
        assert session.status is SessionStatus.AWAITING_FIRST_ROW
        assert session.candidates == []
        assert not session.converged

    def test_partial_first_row_no_search(self, session):
        session.input(0, 0, "Avatar")
        assert session.status is SessionStatus.AWAITING_FIRST_ROW
        assert session.search_result is None

    def test_complete_first_row_triggers_search(self, session):
        session.input(0, 0, "Avatar")
        status = session.input(0, 1, "James Cameron")
        assert status is SessionStatus.ACTIVE
        assert session.search_result is not None
        assert len(session.candidates) == 2

    def test_input_below_before_search_rejected(self, session):
        with pytest.raises(SessionError):
            session.input(1, 0, "Big Fish")

    def test_pruning_to_convergence(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        status = session.input(1, 1, "Tim Burton")
        assert status is SessionStatus.CONVERGED
        assert session.converged
        best = session.best_mapping()
        assert best is not None
        assert best.attribute_of(0) == ("movie", "title")

    def test_immediate_convergence(self, running_db):
        session = MappingSession(running_db, ["Name", "Director"])
        session.input(0, 0, "Harry Potter")
        status = session.input(0, 1, "David Yates")
        assert status is SessionStatus.CONVERGED

    def test_no_candidates_status(self, running_db):
        session = MappingSession(running_db, ["Name", "Director"])
        session.input(0, 0, "Avatar")
        status = session.input(0, 1, "Completely Unknown Person")
        assert status is SessionStatus.NO_CANDIDATES
        assert session.warnings  # irrelevant-sample warning recorded

    def test_named_column_input(self, session):
        session.input_named(0, "Name", "Avatar")
        session.input_named(0, "Director", "James Cameron")
        assert session.search_result is not None

    def test_sample_count(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        assert session.sample_count() == 2

    def test_events_logged(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        kinds = [event.kind for event in session.events]
        assert "input" in kinds and "search" in kinds

    def test_describe(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        text = session.describe()
        assert "candidates: 2" in text


class TestIrrelevantSamplePolicy:
    def test_ignore_policy_reverts_cell(self, running_db):
        session = MappingSession(
            running_db, ["Name", "Director"], on_irrelevant="ignore"
        )
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        before = len(session.candidates)
        status = session.input(1, 0, "Zorro The Unknown")
        assert status is SessionStatus.ACTIVE
        assert len(session.candidates) == before
        assert session.spreadsheet.cell(1, 0) is None
        assert session.warnings

    def test_apply_policy_empties(self, running_db):
        session = MappingSession(
            running_db, ["Name", "Director"], on_irrelevant="apply"
        )
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        status = session.input(1, 0, "Zorro The Unknown")
        assert status is SessionStatus.NO_CANDIDATES

    def test_invalid_policy_rejected(self, running_db):
        with pytest.raises(SessionError):
            MappingSession(running_db, ["A"], on_irrelevant="bogus")


class TestEditing:
    def test_editing_row0_reruns_search(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        assert len(session.candidates) == 2
        # switch to the Yates tuple: converges on direct only
        session.input(0, 0, "Harry Potter")
        session.input(0, 1, "David Yates")
        assert session.converged

    def test_replay_preserves_later_rows(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        assert session.converged
        # editing row 0 to the same values keeps the pruning applied
        session.input(0, 0, "Titanic")
        assert session.converged  # direct variant still the only one

    def test_clearing_cell_replays(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        assert session.converged
        session.input(1, 1, "")  # clear the decisive sample
        # Big Fish alone does not disambiguate direct vs write
        assert len(session.candidates) == 2

    def test_overwriting_cell_replays(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        assert session.converged
        # overwrite with a value consistent with both variants
        session.input(1, 0, "Titanic")
        session.input(1, 1, "James Cameron")
        assert len(session.candidates) == 2

    def test_rewrite_cost_ignores_the_largest_row_index(self, session):
        # A replay walks the rows that hold samples, not every index up
        # to the largest one: one far-away cell must not make each later
        # rewrite loop a billion times while it holds the session.
        far = 10**9
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(far, 0, "Titanic")
        outcome = {}

        def rewrite():
            session.input(1, 0, "Titanic")
            outcome["cells"] = session_to_dict(session)["cells"]
            outcome["grid"] = session.spreadsheet.describe()

        worker = threading.Thread(target=rewrite, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "rewrite did not finish within 5 s"
        assert len(session.candidates) == 2
        assert [cell["row"] for cell in outcome["cells"]] == [0, 0, 1, far]
        assert outcome["grid"].splitlines()[1:] == [
            "Avatar\tJames Cameron", "Titanic\t", "Titanic\t",
        ]


class TestUndo:
    def test_undo_restores_candidates(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        assert session.converged
        status = session.undo()
        assert status is SessionStatus.ACTIVE
        assert len(session.candidates) == 2
        assert session.spreadsheet.cell(1, 1) is None

    def test_undo_first_row_returns_to_awaiting(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        status = session.undo()
        assert status is SessionStatus.AWAITING_FIRST_ROW
        assert session.search_result is None
        assert session.candidates == []

    def test_undo_overwrite_restores_previous_content(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(0, 0, "Harry Potter")
        session.input(0, 1, "David Yates")
        assert session.converged
        session.undo()  # Director back to James Cameron
        session.undo()  # Name back to Avatar
        assert session.spreadsheet.first_row() == ("Avatar", "James Cameron")
        assert len(session.candidates) == 2

    def test_undo_empty_stack(self, session):
        with pytest.raises(SessionError):
            session.undo()

    def test_undo_then_redo_by_retyping(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        session.undo()
        session.input(1, 1, "Tim Burton")
        assert session.converged


class TestMaterialize:
    def test_materialize_converged(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        session.input(1, 1, "Tim Burton")
        target = session.materialize()
        relation = target.schema.relation("target")
        assert relation.attribute_names == ("Name", "Director")
        rows = set(target.table("target"))
        assert ("Harry Potter", "David Yates") in rows

    def test_materialize_requires_convergence(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")  # two candidates remain
        with pytest.raises(SessionError):
            session.materialize()

    def test_materialize_before_search(self, session):
        with pytest.raises(SessionError):
            session.materialize()


class TestTimings:
    def test_search_and_prune_timed(self, session):
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron")
        session.input(1, 0, "Big Fish")
        assert len(session.timings.search_seconds) == 1
        assert len(session.timings.prune_seconds) >= 1
        assert all(t >= 0 for t in session.timings.prune_seconds)
