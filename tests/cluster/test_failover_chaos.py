"""Chaos test: ``kill -9`` of a real shard process mid-session.

Boots the real topology — three ``mweaver shard`` subprocesses plus an
``mweaver cluster`` coordinator (R=2, journaled) — SIGKILLs the
session's primary shard, and asserts the acceptance property: zero
accepted session state lost (the session converges to the same
candidate set an unkilled run produces), the coordinator keeps serving,
and nothing ever answers 500.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cluster import CoordinatorProcess, ShardProcess

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


def test_kill9_of_the_primary_loses_zero_accepted_state(tmp_path):
    shards = [
        ShardProcess(name=f"shard{i}")
        for i in range(3)
    ]
    coordinator = None
    try:
        for shard in shards:
            shard.start()
        for shard in shards:
            shard.wait_ready()
        coordinator = CoordinatorProcess(
            [shard.address for shard in shards],
            journal_dir=str(tmp_path / "coord"),
        ).start().wait_ready()
        host, port = coordinator.host, coordinator.port

        status, body = _call(host, port, "POST", "/sessions", {})
        assert status == 201, body
        session_id = body["session_id"]
        assert len(body["replicas"]) == 2

        # First half of the flow before the kill...
        for row, column, value in FLOW_CELLS[:2]:
            status, body = _call(
                host, port, "POST", f"/sessions/{session_id}/cells",
                {"row": row, "column": column, "value": value},
            )
            assert status == 200, body
            assert body["applied"] is True

        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        primary = health["sessions"]["placement"][session_id]["primary"]
        victim = next(s for s in shards if s.address == primary)
        victim.kill()  # SIGKILL mid-session: no drain, no goodbye
        assert not victim.alive()

        # ...second half after it.  Transient refusals (503/504) are
        # allowed while the coordinator notices; 5xx other than that — and
        # any lost cell — is a failure.
        statuses: list[int] = []
        for row, column, value in FLOW_CELLS[2:]:
            deadline = time.monotonic() + 30.0
            while True:
                status, body = _call(
                    host, port, "POST", f"/sessions/{session_id}/cells",
                    {"row": row, "column": column, "value": value},
                )
                statuses.append(status)
                if status == 200:
                    assert body["applied"] is True
                    break
                assert status in (503, 504), (status, body)
                assert time.monotonic() < deadline, "failover never healed"
                time.sleep(0.2)
        assert all(s in (200, 503, 504) for s in statuses)

        deadline = time.monotonic() + 30.0
        while True:
            status, killed_run = _call(
                host, port, "GET",
                f"/sessions/{session_id}/candidates?limit=1&sql=1",
            )
            if status == 200:
                break
            assert status in (503, 504), (status, killed_run)
            assert time.monotonic() < deadline
            time.sleep(0.2)

        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        placement = health["sessions"]["placement"][session_id]
        assert placement["primary"] != primary
        assert health["failovers"] >= 1
        assert placement["cells"] == len(FLOW_CELLS)

        # The unkilled control run on the same cluster.
        status, body = _call(host, port, "POST", "/sessions", {})
        assert status == 201, body
        control_id = body["session_id"]
        for row, column, value in FLOW_CELLS:
            deadline = time.monotonic() + 30.0
            while True:
                status, body = _call(
                    host, port, "POST", f"/sessions/{control_id}/cells",
                    {"row": row, "column": column, "value": value},
                )
                if status == 200:
                    break
                assert status in (503, 504), (status, body)
                assert time.monotonic() < deadline
                time.sleep(0.2)
        status, control_run = _call(
            host, port, "GET",
            f"/sessions/{control_id}/candidates?limit=1&sql=1",
        )
        assert status == 200
        assert killed_run["candidates"] == control_run["candidates"]
    finally:
        if coordinator is not None:
            coordinator.terminate()
        for shard in shards:
            shard.terminate()
