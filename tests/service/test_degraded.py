"""Degraded-mode HTTP semantics: anytime answers, healthz.

The contract under test: a cell input whose search budget runs out is
still a **200** — the payload carries ``degraded: true`` plus the
machine-readable ``degradation`` summary — and ``/healthz`` surfaces
the search deadline and journal state.
"""

import pytest

from repro.resilience import Budget


def _fill_first_row(app, session_id):
    status, body, _ = app.handle(
        "POST", f"/sessions/{session_id}/cells", {},
        {"row": 0, "column": 0, "value": "Avatar"},
    )
    assert status == 200, body
    return app.handle(
        "POST", f"/sessions/{session_id}/cells", {},
        {"row": 0, "column": 1, "value": "James Cameron"},
    )


class TestDegradedAnswers:
    def test_exhausted_search_budget_is_still_a_200(self, make_app):
        app = make_app(request_timeout_s=5.0, search_deadline_s=1e-9)
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        assert status == 201
        status, body, _ = _fill_first_row(app, body["session_id"])
        assert status == 200, body
        assert body["degraded"] is True
        assert body["degradation"]["degraded"] is True
        assert body["degradation"]["phase"] in (
            "locate", "pairwise", "instantiate", "weave", "rank",
        )
        assert body["degradation"]["reason"] == "deadline"

    def test_happy_path_is_not_flagged(self, app):
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        status, body, _ = _fill_first_row(app, body["session_id"])
        assert status == 200
        assert body["degraded"] is False
        assert body["degradation"] is None
        assert body["n_candidates"] == 2

    def test_degraded_candidates_remain_queryable(self, make_app):
        app = make_app(request_timeout_s=5.0, search_deadline_s=1e-9)
        _status, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        _fill_first_row(app, session_id)
        status, body, _ = app.handle(
            "GET", f"/sessions/{session_id}/candidates", {"limit": "5"}, None
        )
        assert status == 200
        # Best-effort list: possibly empty under an instant deadline,
        # but the endpoint answers normally either way.
        assert "candidates" in body

    def test_session_state_reports_degradation(self, make_app):
        app = make_app(request_timeout_s=5.0, search_deadline_s=1e-9)
        _status, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        _fill_first_row(app, session_id)
        status, body, _ = app.handle(
            "GET", f"/sessions/{session_id}", {}, None
        )
        assert status == 200
        assert body["degraded"] is True

    def test_search_deadline_zero_disables_the_budget(self, make_app):
        app = make_app(request_timeout_s=5.0, search_deadline_s=0.0)
        _status, body, _ = app.handle("POST", "/sessions", {}, {})
        status, body, _ = _fill_first_row(app, body["session_id"])
        assert status == 200
        assert body["degraded"] is False


class TestBudgetCancellation:
    def test_cancelled_mid_search_budget_degrades_the_session(
        self, running_db
    ):
        # Library-level version of "the request thread cancels the
        # worker's search": cancel before the search starts and the
        # session still answers with a degraded (empty-or-partial)
        # candidate list instead of raising.
        from repro.core.session import MappingSession

        session = MappingSession(running_db, ["Name", "Director"])
        session.input(0, 0, "Avatar")
        budget = Budget()
        budget.cancel()
        session.input(0, 1, "James Cameron", budget=budget)
        assert session.last_degradation is not None
        assert session.last_degradation["reason"] == "cancelled"
        assert session.last_error is None  # no rollback happened


class TestHealthz:
    def test_healthz_exposes_breakers_and_deadline(self, app):
        status, body, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["status"] == "ok"
        assert "breakers" not in body  # the registry has no breaker
        assert body["search_deadline_s"] == pytest.approx(0.8 * 5.0)
        assert body["journal"] is None  # journaling off by default
