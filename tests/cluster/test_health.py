"""Tests for heartbeat-driven shard health: the per-shard failure count
that marks a shard down and the healthy streak that re-admits it."""

from __future__ import annotations

from repro.cluster import HealthMonitor
from repro.exceptions import ShardUnavailableError


class _Script:
    """A probe that answers from a per-shard scripted healthy/dead flag."""

    def __init__(self, shards):
        self.healthy = {shard: True for shard in shards}

    def __call__(self, client) -> bool:
        if not self.healthy[client]:
            raise ShardUnavailableError(client, "scripted down")
        return True


def make_monitor(shards=("a:1", "b:1", "c:1"), **overrides):
    # Clients are only handed to the probe; strings suffice here.
    script = _Script(shards)
    settings = dict(
        interval_s=0.05,
        failure_threshold=2,
        probe=script,
    )
    settings.update(overrides)
    monitor = HealthMonitor({shard: shard for shard in shards}, **settings)
    return monitor, script


class TestProbes:
    def test_all_up_initially_and_after_a_clean_round(self):
        monitor, _ = make_monitor()
        assert monitor.up_shards() == ("a:1", "b:1", "c:1")
        results = monitor.probe_once()
        assert all(results.values())
        assert monitor.up_shards() == ("a:1", "b:1", "c:1")

    def test_failures_below_threshold_keep_the_shard_routable(self):
        monitor, script = make_monitor(failure_threshold=3)
        script.healthy["b:1"] = False
        monitor.probe_once()
        assert monitor.is_up("b:1")  # 1 of 3 failures

    def test_threshold_failures_open_the_breaker(self):
        monitor, script = make_monitor(failure_threshold=2)
        script.healthy["b:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        assert not monitor.is_up("b:1")
        assert monitor.up_shards() == ("a:1", "c:1")

    def test_sustained_healthy_probes_readmit_a_tripped_shard(self):
        monitor, script = make_monitor(readmit_threshold=2)
        script.healthy["b:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        assert not monitor.is_up("b:1")
        script.healthy["b:1"] = True
        # One healthy probe is a trial, not a recovery...
        monitor.probe_once()
        assert not monitor.is_up("b:1")
        # ...the second sustained success re-admits with a clean count.
        monitor.probe_once()
        assert monitor.is_up("b:1")
        entry = {e["shard"]: e for e in monitor.snapshot()}["b:1"]
        assert entry["up"] is True
        assert entry["consecutive_failures"] == 0

    def test_readmit_threshold_one_restores_single_probe_recovery(self):
        monitor, script = make_monitor(readmit_threshold=1)
        script.healthy["b:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        assert not monitor.is_up("b:1")
        script.healthy["b:1"] = True
        monitor.probe_once()
        assert monitor.is_up("b:1")

    def test_a_probe_raising_oddly_counts_as_failure(self):
        def weird_probe(_client):
            raise RuntimeError("probe exploded")

        monitor, _ = make_monitor(probe=weird_probe, failure_threshold=2)
        monitor.probe_once()
        monitor.probe_once()
        assert monitor.up_shards() == ()

    def test_odd_probe_failures_warn_once_per_episode(self, caplog):
        import logging

        def weird_probe(_client):
            raise RuntimeError("probe exploded")

        monitor, _ = make_monitor(
            shards=("a:1",), probe=weird_probe, failure_threshold=2
        )
        with caplog.at_level(logging.WARNING, logger="repro.cluster.health"):
            for _ in range(20):
                monitor.probe_once()
        odd = [
            record for record in caplog.records
            if "failed oddly" in record.getMessage()
        ]
        # 20 failing rounds, one warning — repeats are suppressed until
        # the shard recovers (plus the one marked-down transition line).
        assert len(odd) == 1
        down = [
            record for record in caplog.records
            if "marked down" in record.getMessage()
        ]
        assert len(down) == 1


class TestFlapping:
    def test_alternating_probes_do_not_oscillate_routing(self):
        """A flapping shard must stay out of routing, not bounce.

        Re-admitting on the first healthy heartbeat would let
        alternating ok/fail heartbeats re-admit the shard on every
        lucky probe and evict it on the next — routing whiplash.  With
        a sustained-healthy window of 2, a single success between
        failures never re-admits.
        """
        monitor, script = make_monitor(
            shards=("a:1", "b:1"),
            failure_threshold=2,
            readmit_threshold=2,
        )
        script.healthy["b:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        assert not monitor.is_up("b:1")
        transitions = 0
        previously_up = monitor.is_up("b:1")
        for round_number in range(30):
            script.healthy["b:1"] = round_number % 2 == 0
            monitor.probe_once()
            now_up = monitor.is_up("b:1")
            if now_up != previously_up:
                transitions += 1
            previously_up = now_up
        assert transitions == 0  # never re-admitted, never flapped
        assert not monitor.is_up("b:1")
        # A genuine recovery (sustained successes) still re-admits.
        script.healthy["b:1"] = True
        monitor.probe_once()
        monitor.probe_once()
        assert monitor.is_up("b:1")

    def test_routed_call_failure_resets_the_healthy_streak(self):
        monitor, script = make_monitor(
            shards=("a:1", "b:1"),
            failure_threshold=2,
            readmit_threshold=3,
        )
        script.healthy["b:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        script.healthy["b:1"] = True
        monitor.probe_once()
        monitor.probe_once()  # streak: 2 of 3
        monitor.record_failure("b:1")  # routed call failed mid-streak
        monitor.probe_once()
        monitor.probe_once()  # streak rebuilt to 2: still down
        assert not monitor.is_up("b:1")
        monitor.probe_once()
        assert monitor.is_up("b:1")


class TestMembership:
    def test_add_and_remove_shards_live(self):
        monitor, script = make_monitor(shards=("a:1",))
        assert monitor.shards() == ("a:1",)
        script.healthy["d:1"] = True
        monitor.add_shard("d:1", "d:1")
        assert monitor.shards() == ("a:1", "d:1")
        assert monitor.is_up("d:1")
        results = monitor.probe_once()
        assert results == {"a:1": True, "d:1": True}
        client = monitor.remove_shard("d:1")
        assert client == "d:1"
        assert monitor.shards() == ("a:1",)
        assert not monitor.is_up("d:1")  # unknown shards are not routable

    def test_feedback_for_removed_shards_is_ignored(self):
        monitor, _ = make_monitor(shards=("a:1", "b:1"))
        monitor.remove_shard("b:1")
        monitor.record_failure("b:1")  # late routed-call result: no-op
        monitor.record_success("b:1")
        assert monitor.shards() == ("a:1",)
        assert [entry["shard"] for entry in monitor.snapshot()] == ["a:1"]


class TestRoutingFeed:
    def test_routing_failures_open_the_breaker_between_heartbeats(self):
        monitor, _ = make_monitor(failure_threshold=2)
        monitor.record_failure("c:1")
        monitor.record_failure("c:1")
        assert not monitor.is_up("c:1")

    def test_routing_success_resets_the_failure_streak(self):
        monitor, _ = make_monitor(failure_threshold=2)
        monitor.record_failure("c:1")
        monitor.record_success("c:1")
        monitor.record_failure("c:1")
        assert monitor.is_up("c:1")


class TestSnapshot:
    def test_snapshot_shape(self):
        monitor, script = make_monitor()
        script.healthy["c:1"] = False
        monitor.probe_once()
        monitor.probe_once()
        snapshot = monitor.snapshot()
        assert [entry["shard"] for entry in snapshot] == [
            "a:1", "b:1", "c:1"
        ]
        by_shard = {entry["shard"]: entry for entry in snapshot}
        assert by_shard["a:1"]["up"] is True
        assert by_shard["a:1"]["last_probe_ok"] is True
        assert by_shard["c:1"]["up"] is False
        assert by_shard["c:1"]["last_probe_ok"] is False
        assert by_shard["a:1"]["consecutive_failures"] == 0
        assert by_shard["c:1"]["consecutive_failures"] == 2
        assert set(by_shard["c:1"]) == {
            "shard", "up", "last_probe_ok", "healthy_streak",
            "consecutive_failures",
        }


class TestThread:
    def test_background_thread_probes_and_stops(self):
        monitor, script = make_monitor(interval_s=0.01)
        script.healthy["a:1"] = False
        monitor.start()
        import time

        deadline = time.monotonic() + 5.0
        while monitor.is_up("a:1") and time.monotonic() < deadline:
            time.sleep(0.01)
        monitor.stop()
        assert not monitor.is_up("a:1")
