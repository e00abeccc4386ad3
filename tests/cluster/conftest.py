"""Shared fixtures for the cluster tier tests.

``make_cluster`` builds a :class:`CoordinatorApp` over N in-process
shard-mode :class:`ServiceApp` backends wired through
:class:`InProcessShardClient` — no sockets, no subprocesses, fully
deterministic: background threads stay off and tests drive
``health.probe_once()`` / ``reconciler.run_pass()`` by hand.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, CoordinatorApp, InProcessShardClient
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig
from repro.service.registry import DatasetRegistry

#: The running-example flow (Figure 2): two complete rows.
FLOW_CELLS = (
    (0, 0, "Avatar"),
    (0, 1, "James Cameron"),
    (1, 0, "Big Fish"),
    (1, 1, "Tim Burton"),
)


@pytest.fixture(scope="session")
def cluster_registry(running_db):
    return DatasetRegistry(builder=lambda _name, _scale: running_db)


@pytest.fixture
def make_cluster(cluster_registry):
    """Factory: ``(coordinator, shard_apps, clients)`` tuples."""
    coordinators: list[CoordinatorApp] = []
    shard_apps: list[ServiceApp] = []

    def build(
        n_shards: int = 3,
        replication: int = 2,
        **overrides,
    ):
        addresses = tuple(
            f"127.0.0.1:{9100 + i}" for i in range(n_shards)
        )
        apps: dict[str, ServiceApp] = {}
        clients: dict[str, InProcessShardClient] = {}

        def make_shard_client(address: str) -> InProcessShardClient:
            """Client factory: live joins get a fresh in-process shard."""
            app = ServiceApp(
                ServiceConfig(
                    datasets=("running",),
                    workers=2,
                    queue_size=16,
                    max_sessions=32,
                    request_timeout_s=10.0,
                    shard_mode=True,
                ),
                registry=cluster_registry,
            )
            apps[address] = app
            shard_apps.append(app)
            client = InProcessShardClient(address, app)
            clients[address] = client
            return client

        for address in addresses:
            make_shard_client(address)
        settings = dict(
            shards=addresses,
            replication=replication,
            heartbeat_interval_s=0.05,
            failure_threshold=2,
        )
        settings.update(overrides)
        coordinator = CoordinatorApp(
            ClusterConfig(**settings),
            clients=dict(clients),
            client_factory=make_shard_client,
            start_background=False,
        )
        coordinators.append(coordinator)
        return coordinator, apps, clients

    yield build
    for coordinator in coordinators:
        coordinator.close()
    for app in shard_apps:
        app.close()


def run_flow(coordinator: CoordinatorApp) -> tuple[str, dict]:
    """Create a session, feed the running-example rows, return
    ``(session_id, top-candidate payload with SQL)``."""
    status, body, _ = coordinator.handle("POST", "/sessions", {}, {})
    assert status == 201, body
    session_id = body["session_id"]
    for row, column, value in FLOW_CELLS:
        status, body, _ = coordinator.handle(
            "POST",
            f"/sessions/{session_id}/cells",
            {},
            {"row": row, "column": column, "value": value},
        )
        assert status == 200, body
        assert body["applied"] is True, body
    status, text, _ = coordinator.handle(
        "GET", f"/sessions/{session_id}/candidates",
        {"limit": "1", "sql": "1"}, None,
    )
    assert status == 200, text
    import json

    return session_id, json.loads(text)


def mark_down(coordinator: CoordinatorApp, shard: str) -> None:
    """Mark one shard down deterministically (no probe thread)."""
    while coordinator.health.is_up(shard):
        coordinator.health.record_failure(shard)
