"""Chaos test: two sequential ``kill -9`` faults with self-healing.

The single-fault chaos test proves failover; this one proves the
*self-healing loop* restores full redundancy between faults.  With
R=2, losing two shards without repair in between would lose every
session whose replica set was exactly those two shards.  Here a
:class:`ShardSupervisor` respawns the first victim (same port, via
``pinned_args``), the heartbeat half-open path re-admits it, and the
reconciler's digest scan reseats its sessions from the coordinator's
journal — so the second ``kill -9`` still loses zero accepted state.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cluster import CoordinatorProcess, ShardProcess, ShardSupervisor

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


def _call_until_200(host, port, method, path, body=None, deadline_s=45.0):
    """Retry through transient 503/504 refusals; fail on anything else."""
    deadline = time.monotonic() + deadline_s
    while True:
        status, reply = _call(host, port, method, path, body)
        if status in (200, 201):
            return status, reply
        assert status in (503, 504), (status, reply)
        assert time.monotonic() < deadline, f"{method} {path} never healed"
        time.sleep(0.2)


def _seed_session(host, port):
    status, body = _call(host, port, "POST", "/sessions", {})
    assert status == 201, body
    session_id = body["session_id"]
    for row, column, value in FLOW_CELLS:
        status, body = _call(
            host, port, "POST", f"/sessions/{session_id}/cells",
            {"row": row, "column": column, "value": value},
        )
        assert status == 200 and body["applied"] is True, body
    status, reference = _call(
        host, port, "GET",
        f"/sessions/{session_id}/candidates?limit=1&sql=1",
    )
    assert status == 200
    return session_id, reference


def test_double_fault_with_repair_in_between_loses_nothing(tmp_path):
    # Shards deliberately journal-less: a respawned shard comes back
    # *empty*, so redundancy can only return via anti-entropy reseats
    # from the coordinator journal — the path under test.
    shards = [ShardProcess(name=f"shard{i}") for i in range(3)]
    supervisor = ShardSupervisor(seed=11, poll_interval_s=0.1)
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

        for shard in shards:
            supervisor.manage(shard)
        supervisor.start()

        flows = [_seed_session(host, port) for _ in range(3)]

        # --- fault 1: SIGKILL the first session's primary ------------
        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        placement = health["sessions"]["placement"]
        first_primary = placement[flows[0][0]]["primary"]
        rounds_before = health["repair"]["rounds"]
        victim_a = next(s for s in shards if s.address == first_primary)
        victim_a.kill()
        assert not victim_a.alive()

        # The supervisor notices, backs off, respawns on the same port.
        deadline = time.monotonic() + 60.0
        while True:
            entry = next(
                e for e in supervisor.snapshot()
                if e["name"] == victim_a.name
            )
            if entry["respawns"] >= 1 and entry["alive"]:
                break
            assert time.monotonic() < deadline, "supervisor never respawned"
            time.sleep(0.1)
        respawned = supervisor.processes()[victim_a.name]
        assert respawned.address == victim_a.address  # pinned port

        # Heartbeats re-admit it and anti-entropy reseats its sessions:
        # wait for a repair round *after* the respawn to converge.
        deadline = time.monotonic() + 60.0
        while True:
            status, health = _call(host, port, "GET", "/healthz")
            assert status == 200
            repair = health["repair"]
            if (
                health["shards_up"] == len(shards)
                and repair["rounds"] > rounds_before
                and repair["converged"]
            ):
                break
            assert time.monotonic() < deadline, (
                f"cluster never healed: {health}"
            )
            time.sleep(0.2)
        assert repair["total_reseats"] >= 1  # the respawn came back empty

        # --- fault 2: SIGKILL the (possibly new) primary --------------
        status, health = _call(host, port, "GET", "/healthz")
        second_primary = (
            health["sessions"]["placement"][flows[0][0]]["primary"]
        )
        victim_b = next(
            proc for proc in supervisor.processes().values()
            if proc.address == second_primary
        )
        victim_b.kill()
        assert not victim_b.alive()

        # Zero accepted-state loss: every session still answers the
        # converged candidate it answered before either fault.
        for session_id, reference in flows:
            _, after = _call_until_200(
                host, port, "GET",
                f"/sessions/{session_id}/candidates?limit=1&sql=1",
            )
            assert after["candidates"] == reference["candidates"], (
                session_id
            )

        # And every cell survived both faults.
        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        for session_id, _ in flows:
            cells = health["sessions"]["placement"][session_id]["cells"]
            assert cells == len(FLOW_CELLS), (session_id, cells)
    finally:
        supervisor.stop()
        if coordinator is not None:
            coordinator.terminate()
        for process in supervisor.processes().values():
            process.terminate()
        for shard in shards:
            shard.terminate()
