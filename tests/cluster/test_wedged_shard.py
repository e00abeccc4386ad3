"""Chaos test: a wedged shard is routed around in bounded time.

A backend that blocks where the cooperative search budget has no
checkpoint cannot be contained inside one ``mweaver serve`` (see
``tests/service/test_chaos_containment.py``).  The cluster contains it:
the coordinator's per-call timeout turns the wedge into a transport
failure, and the session fails over to a replica seated from the
coordinator's journal.

Boots three real ``mweaver shard`` processes and a journaled
``mweaver cluster`` coordinator (R=2, ``--request-timeout 2``), freezes
the victim session's primary with ``SIGSTOP`` mid-flow, and asserts:

* every remaining cell answers 200 within one ``request_timeout`` plus
  slack, at most one of them (the failover) takes longer than
  ``request_timeout``, and the victim converges;
* a bystander session placed off the frozen shard is untouched;
* after ``SIGCONT`` an anti-entropy repair reports the cluster
  converged.

Only the failover pays the call timeout: the reconciler does not ship
to the frozen former primary once a call to it has failed, so no later
cell waits behind a ship holding the session lock.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
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

REQUEST_TIMEOUT_S = 2.0
FAILURE_THRESHOLD = 2
#: Scheduling and HTTP overhead on a loaded machine.
SLACK_S = 2.0
CELL_BOUND_S = REQUEST_TIMEOUT_S + SLACK_S


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


def _put(host, port, session_id, row, column, value):
    return _call(
        host, port, "POST", f"/sessions/{session_id}/cells",
        {"row": row, "column": column, "value": value},
    )


def _create(host, port):
    status, body = _call(host, port, "POST", "/sessions", {})
    assert status == 201, body
    return body


def test_sigstopped_primary_is_routed_around_in_bounded_time(tmp_path):
    shards = [ShardProcess(name=f"shard{i}") for i in range(3)]
    coordinator = None
    stopped_pid = None
    try:
        for shard in shards:
            shard.start()
        for shard in shards:
            shard.wait_ready()
        coordinator = CoordinatorProcess(
            [shard.address for shard in shards],
            journal_dir=str(tmp_path / "coord"),
            failure_threshold=FAILURE_THRESHOLD,
            extra_args=("--request-timeout", str(REQUEST_TIMEOUT_S)),
        ).start().wait_ready()
        host, port = coordinator.host, coordinator.port

        victim = _create(host, port)
        victim_id, stopped = victim["session_id"], victim["primary"]
        # The bystander lives entirely off the shard about to freeze.
        for _ in range(50):
            bystander = _create(host, port)
            if stopped not in bystander["replicas"]:
                break
        else:
            pytest.fail("no session placed off the victim's primary")
        bystander_id = bystander["session_id"]
        for row, column, value in FLOW_CELLS:
            status, body = _put(host, port, bystander_id, row, column, value)
            assert status == 200, body
        assert body["converged"] is True
        status, bystander_before = _call(
            host, port, "GET",
            f"/sessions/{bystander_id}/candidates?limit=5&sql=1",
        )
        assert status == 200

        row, column, value = FLOW_CELLS[0]
        status, body = _put(host, port, victim_id, row, column, value)
        assert status == 200, body

        wedged = next(s for s in shards if s.address == stopped)
        stopped_pid = wedged.process.pid
        os.kill(stopped_pid, signal.SIGSTOP)

        timings = []
        for row, column, value in FLOW_CELLS[1:]:
            started = time.monotonic()
            status, body = _put(host, port, victim_id, row, column, value)
            timings.append(time.monotonic() - started)
            assert status == 200, (status, body, timings)
            assert body["applied"] is True
        assert max(timings) <= CELL_BOUND_S, timings
        assert sum(t > REQUEST_TIMEOUT_S for t in timings) <= 1, timings
        assert body["samples"] == len(FLOW_CELLS)
        assert body["converged"] is True

        status, health = _call(host, port, "GET", "/healthz")
        assert status == 200
        placement = health["sessions"]["placement"]
        assert placement[victim_id]["primary"] != stopped
        assert placement[victim_id]["failovers"] >= 1
        assert placement[victim_id]["cells"] == len(FLOW_CELLS)
        assert placement[bystander_id]["primary"] == bystander["primary"]
        assert placement[bystander_id]["failovers"] == 0
        status, bystander_after = _call(
            host, port, "GET",
            f"/sessions/{bystander_id}/candidates?limit=5&sql=1",
        )
        assert status == 200
        assert bystander_after == bystander_before

        os.kill(stopped_pid, signal.SIGCONT)
        stopped_pid = None
        # The thawed shard is re-admitted after readmit_threshold
        # healthy heartbeats; until then the scan counts it unverified.
        deadline = time.monotonic() + 30.0
        while True:
            status, repair = _call(host, port, "POST", "/admin/repair")
            assert status == 200, repair
            if repair["round"]["converged"]:
                break
            assert time.monotonic() < deadline, repair
            time.sleep(0.25)
    finally:
        if stopped_pid is not None:
            os.kill(stopped_pid, signal.SIGCONT)
        if coordinator is not None:
            coordinator.terminate()
        for shard in shards:
            shard.terminate()
