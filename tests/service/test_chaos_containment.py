"""What one node cannot contain: a backend that blocks where the
cooperative budget has no checkpoint.

The scenario is a backend that blocks *inside* a C-level call — modeled
by a latency fault at ``index.search``, which sleeps where the
cooperative :class:`~repro.resilience.Budget` has no checkpoint.  The
request holds a worker hostage for the full fault duration; the
cooperative search deadline sails past unheeded.  (The service still
answers — but containment failed.)

A single ``mweaver serve`` has no backstop for this.  The bounded
answer comes from the cluster: the coordinator's per-call timeout plus
replica failover, proven against a frozen shard process in
``tests/cluster/test_wedged_shard.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.resilience import FaultInjector, FaultSpec

pytestmark = pytest.mark.slow


def _put(app, session_id, row, column, value):
    return app.handle(
        "POST", f"/sessions/{session_id}/cells", {},
        {"row": row, "column": column, "value": value},
    )


class TestThreadModeHasNoBackstop:
    """The worker pool cannot preempt a wedged backend.

    Containment lives one layer up: see
    ``tests/cluster/test_wedged_shard.py``, where a frozen shard is
    routed around within the coordinator's call timeout.
    """

    def test_blocking_backend_ignores_the_cooperative_budget(self, make_app):
        app = make_app(search_deadline_s=0.2, request_timeout_s=30.0)
        _, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        status, _, _ = _put(app, session_id, 0, 0, "Avatar")
        assert status == 200
        # The second cell completes row 0 and triggers the search; the
        # first index probe then blocks for 2s — 10x the cooperative
        # deadline — and nothing can interrupt it.
        plan = [FaultSpec("index.search", mode="latency",
                          latency_s=2.0, times=1)]
        started = time.monotonic()
        with FaultInjector(plan):
            status, body, _ = _put(app, session_id, 0, 1, "James Cameron")
        elapsed = time.monotonic() - started
        assert status == 200, body
        assert elapsed >= 2.0, (
            "the cooperative budget should have been unable to preempt "
            "the blocked backend"
        )
