"""Tests for the transport-independent service application."""

import threading

import pytest

from tests.service.conftest import FLOW_CELLS, run_flow


class TestHealthAndMetrics:
    def test_healthz(self, app):
        status, body, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == ["running"]
        assert body["sessions"] == 0
        assert body["workers"] == 2
        assert body["pool"] == {"workers": 2, "busy": 0, "queue_depth": 0}

    def test_metrics_reports_cache_and_sessions(self, app):
        run_flow(app)
        status, body, _ = app.handle("GET", "/metrics", {}, None)
        assert status == 200
        assert body["service"]["sessions"] == 0
        cache = body["service"]["location_cache"]
        assert cache["misses"] >= 2
        assert set(body["metrics"]) == {"counters", "gauges", "histograms"}


class TestSessionFlow:
    def test_create_uses_config_defaults(self, app):
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        assert status == 201
        assert body["dataset"] == "running"
        assert body["columns"] == ["Name", "Director"]
        assert body["status"] == "awaiting_first_row"
        assert body["converged"] is False

    def test_full_flow_converges_to_the_paper_mapping(self, app):
        body = run_flow(app)
        assert body["status"] == "converged"
        assert body["n_candidates"] == 1
        (top,) = body["candidates"]
        assert "0->movie.title, 1->person.name" in top["mapping"]
        assert top["sql"].startswith("SELECT")
        assert '"Name"' in top["sql"] and '"Director"' in top["sql"]

    def test_cells_by_column_name(self, app):
        _, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        status, body, _ = app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 0, "column_name": "Name", "value": "Avatar"},
        )
        assert status == 200
        assert body["samples"] == 1

    def test_session_listing_and_state(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        session_id = created["session_id"]
        status, body, _ = app.handle("GET", "/sessions", {}, None)
        assert status == 200 and body["sessions"] == [session_id]
        status, body, _ = app.handle("GET", f"/sessions/{session_id}", {}, None)
        assert status == 200 and body["session_id"] == session_id

    def test_delete_then_404(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        session_id = created["session_id"]
        status, body, _ = app.handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204 and body is None
        status, _, _ = app.handle("GET", f"/sessions/{session_id}", {}, None)
        assert status == 404

    def test_explain_after_convergence(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        session_id = created["session_id"]
        for row, column, value in FLOW_CELLS:
            app.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": row, "column": column, "value": value},
            )
        status, body, _ = app.handle(
            "GET", f"/sessions/{session_id}/explain", {}, None
        )
        assert status == 200
        assert body["status"] == "converged"
        assert body["last_error"] is None
        assert body["best_sql"].startswith("SELECT")
        kinds = {event["kind"] for event in body["events"]}
        assert {"input", "search", "prune"} <= kinds

    def test_suggest_completes_prefixes(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        session_id = created["session_id"]
        for row, column, value in FLOW_CELLS[:2]:
            app.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": row, "column": column, "value": value},
            )
        status, body, _ = app.handle(
            "GET", f"/sessions/{session_id}/suggest",
            {"row": "1", "column": "0", "prefix": "big"}, None,
        )
        assert status == 200
        assert "Big Fish" in body["suggestions"]


class TestBadRequests:
    def test_unknown_route(self, app):
        status, body, _ = app.handle("GET", "/nope", {}, None)
        assert status == 404 and "no route" in body["error"]

    def test_unknown_session(self, app):
        status, body, _ = app.handle("GET", "/sessions/sXXXX", {}, None)
        assert status == 404 and "sXXXX" in body["error"]

    def test_undeclared_dataset_rejected(self, app):
        status, body, _ = app.handle(
            "POST", "/sessions", {}, {"dataset": "imdb"}
        )
        assert status == 400 and "not served" in body["error"]

    def test_bad_columns_rejected(self, app):
        for columns in ([], "Name", [1, 2], ["  "]):
            status, body, _ = app.handle(
                "POST", "/sessions", {}, {"columns": columns}
            )
            assert status == 400, columns

    def test_cell_requires_row_value_and_column(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        path = f"/sessions/{created['session_id']}/cells"
        for body in (
            None,
            {"column": 0, "value": "x"},              # no row
            {"row": 0, "column": 0},                  # no value
            {"row": 0, "value": "x"},                 # no column at all
            {"row": "zero", "column": 0, "value": "x"},
        ):
            status, payload, _ = app.handle("POST", path, {}, body)
            assert status == 400, (body, payload)

    def test_second_row_before_first_is_a_session_error(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        status, body, _ = app.handle(
            "POST", f"/sessions/{created['session_id']}/cells", {},
            {"row": 1, "column": 0, "value": "Big Fish"},
        )
        assert status == 400
        assert "first row" in body["error"]

    def test_bad_candidates_limit(self, app):
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        status, _, _ = app.handle(
            "GET", f"/sessions/{created['session_id']}/candidates",
            {"limit": "lots"}, None,
        )
        assert status == 400


class TestOverloadAndDeadlines:
    def test_full_session_table_answers_429(self, make_app):
        app = make_app(max_sessions=1)
        assert app.handle("POST", "/sessions", {}, {})[0] == 201
        status, body, headers = app.handle("POST", "/sessions", {}, {})
        assert status == 429
        assert "Retry-After" in headers
        assert body["retry_after_s"] > 0

    def test_full_work_queue_answers_429(self, make_app):
        app = make_app(workers=1, queue_size=1, request_timeout_s=0.1)
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        release = threading.Event()
        blocker = app.pool.submit(release.wait, timeout_s=10.0)
        try:
            # The single worker is held; a first cell request times out
            # (504) but its cancelled job still occupies the one queue
            # slot, so the next request is rejected up-front with 429.
            statuses = []
            for _ in range(4):
                status, _, headers = app.handle(
                    "POST", f"/sessions/{created['session_id']}/cells", {},
                    {"row": 0, "column": 0, "value": "Avatar"},
                )
                statuses.append((status, headers))
                if status == 429:
                    break
            else:
                pytest.fail(f"never overloaded: {statuses}")
            status, headers = statuses[-1]
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            # Earlier attempts either timed out waiting (504) or were
            # rejected up-front (429), depending on whether the worker
            # had already dequeued the blocker.
            assert all(s in (504, 429) for s, _ in statuses)
        finally:
            release.set()
            blocker.wait()

    def test_missed_deadline_answers_504_and_stays_usable(self, make_app):
        app = make_app(workers=1, queue_size=4, request_timeout_s=0.2)
        _, created, _ = app.handle("POST", "/sessions", {}, {})
        session_id = created["session_id"]
        release = threading.Event()
        blocker = app.pool.submit(release.wait, timeout_s=10.0)
        try:
            status, body, _ = app.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": 0, "column": 0, "value": "Avatar"},
            )
            assert status == 504, body
        finally:
            release.set()
            blocker.wait()
        # The timed-out job was cancelled in the queue; the session is
        # untouched and accepts the same cell afterwards.
        status, body, _ = app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 0, "column": 0, "value": "Avatar"},
        )
        assert status == 200
        assert body["samples"] == 1
