"""The ops surface: /metrics exposition, /healthz obs state, /debug routes.

Everything here drives :meth:`ServiceApp.handle` directly (no sockets)
inside ``obs.scoped()`` so the shared tracer/metrics handles are live
for the duration of one test and restored afterwards.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.obs.prometheus import parse_exposition

from tests.service.conftest import FLOW_CELLS, run_flow


class TestMetricsJson:
    def test_json_body_carries_service_and_snapshot(self, app):
        with obs.scoped():
            run_flow(app)
            status, body, _ = app.handle("GET", "/metrics", {}, None)
        assert status == 200
        assert set(body) == {"service", "metrics"}
        counters = body["metrics"]["counters"]
        assert any(
            key.startswith("repro.service.requests{") for key in counters
        )


class TestPrometheusExposition:
    def scrape(self, app):
        status, text, headers = app.handle(
            "GET", "/metrics", {"format": "prometheus"}, None
        )
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        assert isinstance(text, str)
        return parse_exposition(text)

    def test_red_metrics_per_route(self, app):
        with obs.scoped():
            run_flow(app)
            parsed = self.scrape(app)
        requests = parsed["repro_service_requests_total"]
        by_route = {
            sample["labels"]["route"]: sample["value"]
            for sample in requests
            if sample["labels"]["route"] == "POST /sessions/{id}/cells"
        }
        assert by_route["POST /sessions/{id}/cells"] == len(FLOW_CELLS)
        statuses = {
            sample["labels"]["status"] for sample in requests
        }
        assert "200" in statuses
        # Duration histograms: global and per-route, both valid (the
        # parser enforces bucket monotonicity and _sum/_count).
        routes_with_latency = {
            sample["labels"].get("route")
            for sample in parsed["repro_service_request_seconds_count"]
        }
        assert None is not routes_with_latency
        assert "POST /sessions/{id}/cells" in routes_with_latency

    def test_formerly_healthz_gauges_are_scrapable(self, app):
        with obs.scoped():
            run_flow(app)
            parsed = self.scrape(app)
        for name in (
            "repro_service_uptime_seconds",
            "repro_service_sessions_live",
            "repro_admission_ewma_job_s",
            "repro_service_workers_busy",
            "repro_location_cache_hits",
        ):
            assert name in parsed, name

    def test_server_errors_are_counted_by_status(
        self, make_app, monkeypatch
    ):
        """The series the documented burn-rate recording rules read.

        Availability divides the ``status=~"5.."`` requests by all of
        them, so a 5xx and a 404 must land under their own status; the
        latency rule reads the global histogram's ``le="0.25"`` bucket.
        """
        app = make_app()

        def boom(*_args):
            raise RuntimeError("boom")

        with obs.scoped():
            status, _, _ = app.handle("GET", "/sessions/sXXXX", {}, None)
            assert status == 404
            monkeypatch.setattr(app, "_dispatch", boom)
            status, _, _ = app.handle("GET", "/sessions", {}, None)
            assert status == 500
            monkeypatch.undo()
            parsed = self.scrape(app)
        statuses = {
            (sample["labels"]["route"], sample["labels"]["status"])
            for sample in parsed["repro_service_requests_total"]
        }
        assert ("GET /sessions/{id}", "404") in statuses
        assert ("GET /sessions", "500") in statuses
        assert any(
            sample["labels"] == {"le": "0.25"} and sample["value"] >= 2
            for sample in parsed["repro_service_request_seconds_bucket"]
        )

    def test_concurrent_scrapes_all_parse(self, app):
        """Scrapes racing live traffic never see a torn exposition."""
        errors: list[BaseException] = []
        stop = threading.Event()

        def traffic():
            while not stop.is_set():
                run_flow(app)

        def scraper():
            try:
                for _ in range(20):
                    self.scrape(app)
            except BaseException as error:  # noqa: BLE001 - test collects
                errors.append(error)

        with obs.scoped():
            driver = threading.Thread(target=traffic, daemon=True)
            driver.start()
            scrapers = [
                threading.Thread(target=scraper) for _ in range(4)
            ]
            for thread in scrapers:
                thread.start()
            for thread in scrapers:
                thread.join(timeout=60.0)
            stop.set()
            driver.join(timeout=60.0)
        assert errors == []


class TestObsInHealthz:
    def test_healthz_reports_recorder_and_profiler_state(self, app):
        with obs.scoped():
            run_flow(app)
            status, body, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["recorder"]["recorded"] > 0
        assert body["profiler"] is None  # profile_hz defaults to 0


class TestDebugProfile:
    def test_disabled_by_default(self, app):
        status, body, _ = app.handle("GET", "/debug/profile", {}, None)
        assert status == 404
        assert "profiler" in body["error"]

    def test_folded_and_json_formats(self, make_app):
        app = make_app(profile_hz=250.0)
        assert app.profiler is not None and app.profiler.running
        status, text, headers = app.handle(
            "GET", "/debug/profile", {}, None
        )
        assert status == 200
        assert isinstance(text, str)
        status, body, _ = app.handle(
            "GET", "/debug/profile", {"format": "json"}, None
        )
        assert status == 200
        assert body["running"] is True
        assert body["hz"] == 250.0

    def test_close_stops_the_profiler(self, make_app):
        app = make_app(profile_hz=250.0)
        app.close()
        assert not app.profiler.running


class TestDebugRequests:
    def test_requests_get_ids_and_are_listed(self, app):
        status, _, headers = app.handle("GET", "/healthz", {}, None)
        request_id = headers["X-Request-Id"]
        assert request_id.startswith("req-")
        status, listing, _ = app.handle("GET", "/debug/requests", {}, None)
        assert status == 200
        ids = [row["id"] for row in listing["requests"]]
        assert request_id in ids
        assert listing["stats"]["recorded"] >= 1

    def test_detail_returns_the_stitched_span_tree(self, app):
        with obs.scoped():
            _, _, headers = app.handle("GET", "/sessions", {}, None)
            request_id = headers["X-Request-Id"]
            status, detail, _ = app.handle(
                "GET", f"/debug/requests/{request_id}", {}, None
            )
        assert status == 200
        assert detail["route"] == "GET /sessions"
        (root,) = obs.records_to_spans(detail["spans"])
        assert root.name == "service.request"
        assert root.attributes["request_id"] == request_id
        # Wall-clock epochs ride along with the monotonic durations.
        assert detail["spans"][0]["epoch_s"] > 0

    def test_unknown_id_is_404(self, app):
        status, body, _ = app.handle(
            "GET", "/debug/requests/req-999999", {}, None
        )
        assert status == 404

    def test_interesting_filter(self, app):
        with obs.scoped():
            app.handle("GET", "/sessions/sXXXX", {}, None)  # 404: healthy
            app.handle("GET", "/sessions", {}, None)
        status, listing, _ = app.handle(
            "GET", "/debug/requests", {"interesting": "1"}, None
        )
        assert status == 200
        assert all(
            row["interesting"] for row in listing["requests"]
        )

    def test_recorder_disabled_removes_the_surface(self, make_app):
        app = make_app(recorder_capacity=0)
        status, _, headers = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert "X-Request-Id" not in headers
        status, body, _ = app.handle("GET", "/debug/requests", {}, None)
        assert status == 404
        assert "recorder" in body["error"]


class TestDebugRoutesDuringDrain:
    def test_debug_surface_answers_while_draining(self, app):
        app.drain(0.1)
        for path in ("/metrics", "/debug/requests", "/healthz"):
            status, _, _ = app.handle("GET", path, {}, None)
            assert status == 200, path
