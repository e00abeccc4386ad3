"""Overload soak — 4x capacity over real HTTP.

A server with 2 worker threads takes 8 concurrent users whose searches
are slowed by an injected ``index.search`` latency fault.  The contract
under that abuse:

* shed/refused requests answer 503 (or 429 from the depth limit) with
  a ``Retry-After`` header — the only other 5xx ever seen is the
  pre-existing 504 deadline class, never a crash 500,
* accepted requests stay fast: soak p50 within a generous multiple of
  the unloaded-with-fault p50 (shedding preserves goodput),
* every user's session state is exactly the cells that were accepted —
  refusals neither lose nor duplicate state.

Killing a backend mid-load is the cluster's job to survive; see
``tests/cluster/test_failover_chaos.py`` and
``tests/cluster/test_double_fault_chaos.py``.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.resilience import FaultInjector, FaultSpec
from repro.service.http import MappingServer

from tests.service.conftest import FLOW_CELLS

pytestmark = pytest.mark.slow

WORKERS = 2
USERS = 4 * WORKERS
#: Per-probe injected latency: slow enough to pile the queue up,
#: fast enough that accepted searches finish inside their deadlines.
FAULT_LATENCY_S = 0.15

#: 5xx statuses the API is allowed to answer under overload: 503 is the
#: shed/drain answer, 504 the pre-existing missed-deadline class.
ALLOWED_5XX = {503, 504}
RETRIABLE = {429, 503, 504}


def _request(port, method, path, body=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        parsed = json.loads(data) if data else None
        return response.status, parsed, dict(response.getheaders())
    finally:
        conn.close()


class _User:
    """One client: create a session, feed the flow, retry refusals."""

    def __init__(self, port: int, deadline: float) -> None:
        self.port = port
        self.deadline = deadline
        self.session_id: str | None = None
        self.accepted = 0
        self.latencies: list[float] = []
        self.statuses: list[int] = []
        self.bad_refusals: list[tuple[int, dict | None]] = []

    def run(self) -> None:
        status, body, _ = _request(self.port, "POST", "/sessions", {})
        if status != 201:
            self.statuses.append(status)
            return
        self.session_id = body["session_id"]
        for row, column, value in FLOW_CELLS:
            self._put_with_retries(row, column, value)

    def _put_with_retries(self, row, column, value) -> None:
        while time.monotonic() < self.deadline:
            started = time.perf_counter()
            status, body, headers = _request(
                self.port, "POST",
                f"/sessions/{self.session_id}/cells",
                {"row": row, "column": column, "value": value},
            )
            elapsed = time.perf_counter() - started
            self.statuses.append(status)
            if status == 200:
                self.accepted += 1
                self.latencies.append(elapsed)
                return
            if status not in RETRIABLE:
                self.bad_refusals.append((status, body))
                return
            if status == 503 and "Retry-After" not in headers:
                self.bad_refusals.append((status, body))
                return
            retry_after = float(headers.get("Retry-After", 1))
            time.sleep(min(retry_after, 0.5))


def test_soak_at_4x_capacity(make_app):
    app = make_app(
        workers=WORKERS,
        queue_size=4,
        max_sessions=2 * USERS,
        request_timeout_s=10.0,
        search_deadline_s=2.0,
        shed_factor=0.1,
    )
    plan = [FaultSpec("index.search", mode="latency",
                      latency_s=FAULT_LATENCY_S)]
    with MappingServer(app, host="127.0.0.1", port=0) as server:
        port = server.port
        with FaultInjector(plan):
            # Phase 1 — unloaded baseline, same fault active, one user.
            baseline = _User(port, time.monotonic() + 60.0)
            baseline.run()
            assert baseline.accepted == len(FLOW_CELLS), baseline.statuses
            unloaded_p50 = statistics.median(baseline.latencies)

            # Phase 2 — the soak: 8 users against 2 workers.
            deadline = time.monotonic() + 120.0
            users = [_User(port, deadline) for _ in range(USERS)]
            threads = [
                threading.Thread(target=user.run, name=f"soak-user-{i}")
                for i, user in enumerate(users)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
            assert not any(t.is_alive() for t in threads)

        # -- failure-class contract ---------------------------------
        all_statuses = [s for user in users for s in user.statuses]
        fivexx = {s for s in all_statuses if s >= 500}
        assert fivexx <= ALLOWED_5XX, sorted(fivexx)
        bad = [b for user in users for b in user.bad_refusals]
        assert not bad, bad

        # -- goodput contract ---------------------------------------
        accepted = [lat for user in users for lat in user.latencies]
        assert accepted, "soak produced no accepted requests"
        soak_p50 = statistics.median(accepted)
        assert soak_p50 <= max(3 * unloaded_p50, 2.0), (
            f"accepted p50 {soak_p50:.3f}s vs unloaded {unloaded_p50:.3f}s"
        )

        # -- overload must have been *visible* ----------------------
        refused = [s for s in all_statuses if s in (429, 503)]
        assert refused, (
            "8 users on 2 workers never got refused — the soak did not "
            "actually overload the service"
        )

        # -- state-integrity contract -------------------------------
        for user in users:
            if user.session_id is None:
                continue
            status, state, _ = _request(
                port, "GET", f"/sessions/{user.session_id}"
            )
            assert status == 200, state
            assert state["samples"] == user.accepted, (
                f"user {user.session_id}: accepted {user.accepted} cells "
                f"but the session holds {state['samples']}"
            )
