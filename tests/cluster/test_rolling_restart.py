"""Rolling-restart and live-membership smoke over real processes.

The CI cluster-smoke job runs these to prove two operational claims:

1. **Rolling restart** — every shard can be restarted in sequence
   under light load with zero non-refusal errors (only 503/504 while
   the health monitor notices each bounce) and zero accepted-state
   loss.
2. **Live membership** — a real shard process can join a running
   cluster through ``POST /admin/shards`` and another can be
   decommissioned through ``DELETE /admin/shards/{address}``, with
   every session answering the same converged candidate afterwards.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cluster import CoordinatorProcess, ServerProcess, ShardProcess

pytestmark = pytest.mark.slow

FLOW_CELLS = (
    (0, 0, "Avatar"),
    (0, 1, "James Cameron"),
    (1, 0, "Big Fish"),
    (1, 1, "Tim Burton"),
)


def _call(host, port, method, path, body=None, timeout_s=30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = (
            {"Content-Type": "application/json"} if body is not None else {}
        )
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        conn.close()


def _seed_session(host, port):
    status, body = _call(host, port, "POST", "/sessions", {})
    assert status == 201, body
    session_id = body["session_id"]
    for row, column, value in FLOW_CELLS:
        status, body = _call(
            host, port, "POST", f"/sessions/{session_id}/cells",
            {"row": row, "column": column, "value": value},
        )
        assert status == 200, body
    status, reference = _call(
        host, port, "GET",
        f"/sessions/{session_id}/candidates?limit=1&sql=1",
    )
    assert status == 200
    return session_id, reference


def _wait_healed(host, port, n_shards, rounds_after, deadline_s=60.0):
    """Poll until every shard is up and a fresh repair round converges."""
    deadline = time.monotonic() + deadline_s
    while True:
        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        repair = health["repair"]
        if (
            health["shards_up"] == n_shards
            and repair["rounds"] > rounds_after
            and repair["converged"]
            and health["pending"] == 0
        ):
            return health
        assert time.monotonic() < deadline, f"never healed: {health}"
        time.sleep(0.2)


def _assert_flows_intact(host, port, flows):
    for session_id, reference in flows:
        deadline = time.monotonic() + 45.0
        while True:
            status, after = _call(
                host, port, "GET",
                f"/sessions/{session_id}/candidates?limit=1&sql=1",
            )
            if status == 200:
                break
            assert status in (503, 504), (status, after)
            assert time.monotonic() < deadline
            time.sleep(0.2)
        assert after["candidates"] == reference["candidates"], session_id


def test_rolling_restart_under_load_loses_nothing(tmp_path):
    shards = [ShardProcess(name=f"shard{i}") for i in range(3)]
    current: dict[str, ServerProcess] = {}
    coordinator = None
    try:
        for shard in shards:
            shard.start()
        for shard in shards:
            shard.wait_ready()
            current[shard.name] = shard
        coordinator = CoordinatorProcess(
            [shard.address for shard in shards],
            journal_dir=str(tmp_path / "coord"),
            heartbeat_interval_s=0.15,
            readmit_threshold=2,
            repair_interval_s=0.25,
        ).start().wait_ready()
        host, port = coordinator.host, coordinator.port

        flows = [_seed_session(host, port) for _ in range(3)]
        load_id, _ = _seed_session(host, port)

        load_statuses: list[int] = []
        row = len(FLOW_CELLS) // 2
        for shard in shards:
            status, health = _call(host, port, "GET", "/healthz")
            rounds = health["repair"]["rounds"]
            # Graceful bounce: SIGTERM, then a fresh incarnation on the
            # same port (journal-less, so repair must reseat it).
            old = current[shard.name]
            assert old.terminate() is not None
            replacement = ServerProcess(
                old.pinned_args(), name=shard.name
            ).start().wait_ready()
            current[shard.name] = replacement
            # Light load while the cluster heals: writes may be refused
            # (503/504) but must never fail any other way.  Rows are
            # filled completely (sample, then director) because the
            # spreadsheet rejects ragged first columns with a 400.
            for _ in range(5):
                for column, value in ((0, "Avatar"), (1, "James Cameron")):
                    status, body = _call(
                        host, port, "POST", f"/sessions/{load_id}/cells",
                        {"row": row, "column": column, "value": value},
                    )
                    load_statuses.append(status)
                    assert status in (200, 503, 504), (status, body)
                    time.sleep(0.05)
                row += 1
            _wait_healed(host, port, len(shards), rounds)
        assert any(status == 200 for status in load_statuses)
        _assert_flows_intact(host, port, flows)
    finally:
        if coordinator is not None:
            coordinator.terminate()
        for process in current.values():
            process.terminate()
        for shard in shards:
            shard.terminate()


def test_live_join_and_decommission_under_real_processes(tmp_path):
    shards = [ShardProcess(name=f"shard{i}") for i in range(2)]
    recruit = ShardProcess(name="recruit")
    coordinator = None
    try:
        for shard in shards:
            shard.start()
        for shard in shards:
            shard.wait_ready()
        coordinator = CoordinatorProcess(
            [shard.address for shard in shards],
            journal_dir=str(tmp_path / "coord"),
            heartbeat_interval_s=0.15,
            readmit_threshold=2,
            repair_interval_s=0.25,
        ).start().wait_ready()
        host, port = coordinator.host, coordinator.port

        flows = [_seed_session(host, port) for _ in range(3)]

        # --- join: a real process enters the ring live ---------------
        recruit.start().wait_ready()
        status, health = _call(host, port, "GET", "/healthz")
        rounds = health["repair"]["rounds"]
        status, body = _call(
            host, port, "POST", "/admin/shards",
            {"address": recruit.address},
        )
        assert status == 201, body
        health = _wait_healed(host, port, 3, rounds)
        assert recruit.address in health["ring"]["shards"]
        _assert_flows_intact(host, port, flows)

        # --- decommission: drain a founding member out ---------------
        victim = shards[0]
        status, health = _call(host, port, "GET", "/healthz")
        rounds = health["repair"]["rounds"]
        status, body = _call(
            host, port, "DELETE", f"/admin/shards/{victim.address}"
        )
        assert status == 202, body
        deadline = time.monotonic() + 60.0
        while True:
            status, health = _call(host, port, "GET", "/healthz")
            assert status == 200
            if (
                not health["membership"]["decommissioning"]
                and health["pending"] == 0
            ):
                break
            assert time.monotonic() < deadline, (
                f"decommission never drained: {health}"
            )
            time.sleep(0.2)
        assert victim.address not in health["ring"]["shards"]
        # Only now is it safe to stop the old process.
        victim.terminate()
        health = _wait_healed(host, port, 2, rounds)
        placement = health["sessions"]["placement"]
        for session_id, _ in flows:
            entry = placement[session_id]
            assert victim.address != entry["primary"]
            assert victim.address not in entry["replicas"]
        _assert_flows_intact(host, port, flows)
    finally:
        if coordinator is not None:
            coordinator.terminate()
        recruit.terminate()
        for shard in shards:
            shard.terminate()
