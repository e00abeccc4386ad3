"""The anti-entropy race that keeps periodic repair off in ``cluster-routed``.

``AntiEntropyRepairer._reseat`` copies a session's grid under the
session lock but ships it to the shard after releasing the lock.  A
cell the coordinator accepts in that gap reaches the primary first and
is then overwritten by the older grid: the client got a 200 for a write
the cluster no longer holds.  Under the benchmark's load this happened
to about one flow in 15,000 with the default two-second repair round,
which would make ``cluster-routed`` report incorrect outputs on some
seeds, so the benchmark's cluster runs with ``--repair-interval 0``.

The test below replays the gap deterministically.  It is a strict
expected failure: once the repairer holds the lock across the ship, it
passes, pytest reports the unexpected pass as a failure, and the
benchmark's cluster can go back to the default repair interval.
"""

import threading
import time

import pytest

from repro.cluster import ClusterConfig, CoordinatorApp
from repro.service import MappingServer, ServiceApp, ServiceConfig

from mwbench.loadgen import Client, wait_ready

#: How long the ship waits for the concurrent write before it goes on.
WRITE_WAIT_S = 0.5


@pytest.fixture
def cluster():
    servers = []
    try:
        for _ in range(2):
            servers.append(MappingServer(ServiceApp(ServiceConfig(
                port=0, shard_mode=True, profile_hz=0,
            ))).start())
        shards = tuple(f"{s.host}:{s.port}" for s in servers)
        coordinator = CoordinatorApp(ClusterConfig(
            port=0, shards=shards, replication=2, repair_interval_s=0,
        ))
        front = MappingServer(coordinator).start()
        servers.insert(0, front)
        address = f"{front.host}:{front.port}"
        wait_ready(address, time.perf_counter() + 30)
        yield coordinator, address
    finally:
        for server in servers:
            server.shutdown()


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="AntiEntropyRepairer._reseat ships a grid copied before the "
    "session lock was released, rolling back cells accepted meanwhile",
)
def test_a_cell_accepted_during_a_repair_ship_survives(cluster):
    coordinator, address = cluster
    client = Client(address)
    try:
        status, body = client.call("POST", "/sessions", {})
        assert status == 201
        session_id = body["session_id"]
        cells = f"/sessions/{session_id}/cells"
        status, _ = client.call(
            "POST", cells, {"row": 0, "column": 0, "value": "Avatar"}
        )
        assert status == 200
        session = coordinator._sessions[session_id]

        write: dict = {}

        def second_cell():
            writer = Client(address)
            try:
                write["reply"] = writer.call(
                    "POST", cells,
                    {"row": 0, "column": 1, "value": "James Cameron"},
                )
            finally:
                writer.close()

        writer_thread = threading.Thread(target=second_cell)
        ship = coordinator._ship_restore

        def ship_while_a_cell_arrives(shard, ship_session_id, payload):
            if shard == session.primary and not writer_thread.is_alive():
                writer_thread.start()
                writer_thread.join(WRITE_WAIT_S)
            return ship(shard, ship_session_id, payload)

        coordinator._ship_restore = ship_while_a_cell_arrives
        # A round whose digest fetch found neither replica holding the
        # session reseats both, the primary included.
        coordinator.repairer._fetch_digests = lambda _shard: {}
        coordinator.repairer.run_round()
        writer_thread.join()

        status, body = write["reply"]
        assert status == 200 and body["status"] == "active"
        status, body = client.call(
            "GET", f"/sessions/{session_id}/candidates"
        )
        assert status == 200
        assert body["status"] == "active", "accepted cell was rolled back"
    finally:
        client.close()
