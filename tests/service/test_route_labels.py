"""Route labels: known routes keep their template, any other path
collapses to one ``"{method} unmatched"`` label.

The label keys the RED request metrics, the request span and the
flight-recorder entry, so a label copied from outside input would grow
the metric registry by one series per distinct path.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cluster import ClusterConfig, CoordinatorApp, InProcessShardClient
from repro.service.validation import route_template

from tests.service.conftest import run_flow

KNOWN_ROUTES = (
    ("GET", "/healthz", "GET /healthz"),
    ("GET", "/metrics", "GET /metrics"),
    ("GET", "/debug/profile", "GET /debug/profile"),
    ("GET", "/debug/requests", "GET /debug/requests"),
    ("GET", "/debug/requests/r-17", "GET /debug/requests/{id}"),
    ("POST", "/sessions", "POST /sessions"),
    ("GET", "/sessions", "GET /sessions"),
    ("GET", "/sessions/s1", "GET /sessions/{id}"),
    ("DELETE", "/sessions/s1", "DELETE /sessions/{id}"),
    ("POST", "/sessions/s1/cells", "POST /sessions/{id}/cells"),
    ("GET", "/sessions/s1/candidates", "GET /sessions/{id}/candidates"),
    ("GET", "/sessions/s1/explain", "GET /sessions/{id}/explain"),
    ("GET", "/sessions/s1/suggest", "GET /sessions/{id}/suggest"),
    ("GET", "/admin/digest", "GET /admin/digest"),
    ("POST", "/admin/sessions/s1/restore",
     "POST /admin/sessions/{id}/restore"),
    ("GET", "/admin/shards", "GET /admin/shards"),
    ("POST", "/admin/shards", "POST /admin/shards"),
    ("DELETE", "/admin/shards/127.0.0.1:9100",
     "DELETE /admin/shards/{address}"),
    ("POST", "/admin/repair", "POST /admin/repair"),
)

UNKNOWN_PATHS = (
    "/",
    "/no-such-route",
    "/sessions/s1/nope",
    "/sessions/s1/cells/extra",
    "/admin/sessions/s1",
    "/admin/sessions/s1/wipe",
    "/debug/requests/r-17/more",
    "/healthz/deep",
    "/locate",
)


@pytest.mark.parametrize("method, path, label", KNOWN_ROUTES)
def test_known_routes_keep_their_template(method, path, label):
    parts = tuple(part for part in path.split("/") if part)
    assert route_template(method, parts) == label


@pytest.mark.parametrize("path", UNKNOWN_PATHS)
def test_unknown_paths_collapse_to_one_label(path):
    parts = tuple(part for part in path.split("/") if part)
    assert route_template("GET", parts) == "GET unmatched"


@pytest.fixture
def coordinator(make_app):
    """A coordinator over one in-process shard (no background threads)."""
    address = "127.0.0.1:9100"
    shard = make_app(shard_mode=True)
    app = CoordinatorApp(
        ClusterConfig(shards=(address,), replication=1),
        clients={address: InProcessShardClient(address, shard)},
        start_background=False,
    )
    yield app
    app.close()


@pytest.mark.parametrize("front_end", ["service", "coordinator"])
def test_unknown_paths_do_not_grow_the_registry(front_end, request):
    if front_end == "service":
        app = request.getfixturevalue("app")
    else:
        app = request.getfixturevalue("coordinator")
    with obs.scoped():
        registry = obs.get_metrics()
        # One known request first, so the unlabelled duration
        # histogram already exists.
        app.handle("GET", "/healthz", {}, None)
        before = len(registry.instruments())
        for i in range(500):
            status, _, _ = app.handle("GET", f"/no-such-route-{i}", {}, None)
            assert status == 404
        assert len(registry.instruments()) - before <= 2
        routes = {
            dict(instrument.labels).get("route")
            for instrument in registry.instruments()
        }
    assert routes >= {"GET unmatched"}
    assert not any(r and "no-such-route" in r for r in routes)


def test_the_flight_recorder_stores_the_collapsed_label(app):
    with obs.scoped():
        run_flow(app)
        app.handle("GET", "/no-such-route-1", {}, None)
        _, listing, _ = app.handle("GET", "/debug/requests", {}, None)
    routes = {entry["route"] for entry in listing["requests"]}
    assert "GET unmatched" in routes
    assert "POST /sessions/{id}/cells" in routes
