"""Tests for the shard supervisor (crash detection + backoff respawn).

These use scripted fake processes and an injected clock/RNG — the
real-process respawn path is exercised by the double-fault chaos test.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ShardSupervisor
from repro.cluster.supervisor import RESPAWN_BACKOFF


class FakeProcess:
    """A ServerProcess-shaped stub with a scriptable liveness flag."""

    def __init__(self, name: str, *, alive: bool = True) -> None:
        self.name = name
        self.process = None
        self._alive = alive
        self.terminated = False

    def alive(self) -> bool:
        return self._alive

    def pinned_args(self) -> list[str]:
        return ["shard", "--port", "9999"]

    def terminate(self, **_kwargs) -> None:
        self.terminated = True
        self._alive = False


def make_supervisor(seed: int = 7):
    clock = [100.0]
    supervisor = ShardSupervisor(
        rng=random.Random(seed), clock=lambda: clock[0]
    )
    return supervisor, clock


class TestWatch:
    def test_healthy_processes_are_left_alone(self):
        supervisor, _ = make_supervisor()
        supervisor.manage(FakeProcess("s0"))
        assert supervisor.poll_once() == []
        assert supervisor.snapshot()[0]["failures"] == 0

    def test_duplicate_names_are_rejected(self):
        supervisor, _ = make_supervisor()
        supervisor.manage(FakeProcess("s0"))
        with pytest.raises(ValueError):
            supervisor.manage(FakeProcess("s0"))

    def test_crash_schedules_a_backoff_then_respawns(self):
        supervisor, clock = make_supervisor(seed=7)
        dead = FakeProcess("s0", alive=False)
        replacement = FakeProcess("s0")
        respawns = []

        def respawn(entry):
            respawns.append(entry.name)
            return replacement

        supervisor.manage(dead, respawn=respawn)
        # Sweep 1: the crash is detected and scheduled, not respawned.
        assert supervisor.poll_once() == []
        assert respawns == []
        entry = supervisor._managed["s0"]
        expected_delay = RESPAWN_BACKOFF.delay_for(0, random.Random(7))
        assert entry.next_attempt_at == pytest.approx(
            100.0 + expected_delay
        )
        # Before the backoff elapses: still waiting.
        clock[0] = 100.0 + expected_delay * 0.5
        assert supervisor.poll_once() == []
        # Past it: respawned, counters reset.
        clock[0] = 100.0 + expected_delay + 0.001
        assert supervisor.poll_once() == ["s0"]
        assert respawns == ["s0"]
        assert entry.process is replacement
        assert entry.failures == 0
        assert entry.next_attempt_at == 0.0
        assert entry.respawns == 1

    def test_failed_respawns_back_off_exponentially(self):
        supervisor, clock = make_supervisor(seed=3)
        reference_rng = random.Random(3)
        supervisor.manage(
            FakeProcess("s0", alive=False),
            respawn=lambda entry: (_ for _ in ()).throw(
                RuntimeError("no port")
            ),
        )
        entry = supervisor._managed["s0"]
        delays = []
        expected = []
        for failures in range(4):
            expected.append(RESPAWN_BACKOFF.delay_for(failures, reference_rng))
            supervisor.poll_once()  # schedule (or fail the respawn)
            delays.append(entry.next_attempt_at - clock[0])
            clock[0] = entry.next_attempt_at + 0.001
        assert delays == pytest.approx(expected)
        # Jittered exponential growth, capped at the 2 s ceiling.
        assert delays[0] < 0.2
        assert all(delay <= 3.0 for delay in delays)
        assert entry.failures == 4
        assert entry.last_error == "no port"

    def test_success_resets_the_failure_counter(self):
        supervisor, clock = make_supervisor(seed=5)
        attempts = []

        def respawn(entry):
            attempts.append(entry.failures)
            if len(attempts) < 3:
                raise RuntimeError("still booting")
            return FakeProcess("s0")

        supervisor.manage(FakeProcess("s0", alive=False), respawn=respawn)
        entry = supervisor._managed["s0"]
        for _ in range(8):
            supervisor.poll_once()
            if entry.next_attempt_at:
                clock[0] = entry.next_attempt_at + 0.001
            if entry.respawns:
                break
        assert entry.respawns == 1
        assert entry.failures == 0
        assert entry.last_error is None
        assert attempts == [1, 2, 3]  # failures at each attempt time

    def test_forget_stops_supervision(self):
        supervisor, _ = make_supervisor()
        process = FakeProcess("s0", alive=False)
        supervisor.manage(process)
        assert supervisor.forget("s0") is process
        assert supervisor.poll_once() == []
        assert supervisor.processes() == {}
        assert supervisor.forget("s0") is None

    def test_snapshot_shape(self):
        supervisor, clock = make_supervisor()
        supervisor.manage(FakeProcess("s1"))
        supervisor.manage(
            FakeProcess("s0", alive=False),
            respawn=lambda entry: FakeProcess("s0"),
        )
        supervisor.poll_once()
        snapshot = supervisor.snapshot()
        assert [entry["name"] for entry in snapshot] == ["s0", "s1"]
        assert snapshot[0]["alive"] is False
        assert snapshot[0]["pending_respawn"] is True
        assert snapshot[1]["alive"] is True
        assert snapshot[1]["pending_respawn"] is False


class TestThread:
    def test_background_thread_respawns_and_stops(self):
        supervisor = ShardSupervisor(
            seed=1, poll_interval_s=0.01
        )
        replacement = FakeProcess("s0")
        supervisor.manage(
            FakeProcess("s0", alive=False),
            respawn=lambda entry: replacement,
        )
        supervisor.start()
        import time

        deadline = time.monotonic() + 5.0
        while (
            supervisor._managed["s0"].process is not replacement
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        supervisor.stop()
        assert supervisor._managed["s0"].process is replacement
