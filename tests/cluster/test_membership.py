"""Tests for live membership change: join, decommission, reconcile."""

from __future__ import annotations

import json

from tests.cluster.conftest import run_flow


def drain_rebalance(coordinator, max_passes: int = 64) -> int:
    """Run reconcile passes until the backlog clears; returns ships."""
    ships = 0
    for _ in range(max_passes):
        ships += coordinator.reconciler.run_pass()
        if coordinator.reconciler.pending() == 0:
            break
    assert coordinator.reconciler.pending() == 0, "reconcile never drained"
    return ships


class TestJoin:
    def test_join_adds_the_shard_to_ring_and_heartbeats(
        self, make_cluster
    ):
        coordinator, apps, _ = make_cluster(n_shards=2)
        new_address = "127.0.0.1:9200"
        status, body, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {"address": new_address}
        )
        assert status == 201, body
        assert new_address in coordinator.ring.shards
        assert new_address in coordinator.health.shards()
        assert new_address in apps  # the factory built a real backend
        results = coordinator.health.probe_once()
        assert results[new_address] is True

    def test_join_rejects_duplicates_and_garbage(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=2)
        status, _, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {"address": "127.0.0.1:9100"}
        )
        assert status == 409
        status, body, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {"address": "not-an-address"}
        )
        assert status == 400
        status, body, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {}
        )
        assert status == 400

    def test_sessions_survive_a_join_with_rebalance(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=2)
        flows = [run_flow(coordinator) for _ in range(4)]
        coordinator.reconciler.run_pass()
        status, _, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {"address": "127.0.0.1:9200"}
        )
        assert status == 201
        drain_rebalance(coordinator)
        coordinator.reconciler.run_pass()
        # Every session is placed on the new ring and still answers
        # the converged candidate it answered before the join.
        for session_id, reference in flows:
            session = coordinator._session(session_id)
            assert set(session.replicas) <= set(coordinator.ring.shards)
            status, text, _ = coordinator.handle(
                "GET", f"/sessions/{session_id}/candidates",
                {"limit": "1", "sql": "1"}, None,
            )
            assert status == 200
            assert (
                json.loads(text)["candidates"][0]["mapping"]
                == reference["candidates"][0]["mapping"]
            )
        assert coordinator.reconciler.repair().converged

    def test_new_sessions_can_land_on_the_joined_shard(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=2)
        coordinator.handle(
            "POST", "/admin/shards", {}, {"address": "127.0.0.1:9200"}
        )
        placed = set()
        for _ in range(24):
            status, body, _ = coordinator.handle(
                "POST", "/sessions", {}, {}
            )
            assert status == 201
            placed.update(body["replicas"])
        assert "127.0.0.1:9200" in placed


class TestDecommission:
    def test_decommission_drains_then_removes_the_shard(
        self, make_cluster
    ):
        coordinator, _, clients = make_cluster(n_shards=3)
        flows = [run_flow(coordinator) for _ in range(4)]
        coordinator.reconciler.run_pass()
        victim = "127.0.0.1:9100"
        status, body, _ = coordinator.handle(
            "DELETE", f"/admin/shards/{victim}", {}, None
        )
        assert status == 202, body
        assert victim not in coordinator.ring.shards
        # Still monitored (it keeps serving until drained)...
        assert victim in coordinator.health.shards()
        drain_rebalance(coordinator)
        # ...and fully removed once nothing references it.
        assert victim not in coordinator.health.shards()
        assert victim not in coordinator.clients
        assert coordinator._decommissioning == set()
        coordinator.reconciler.run_pass()
        for session_id, reference in flows:
            session = coordinator._session(session_id)
            assert victim not in session.replicas
            assert victim != session.primary
            status, text, _ = coordinator.handle(
                "GET", f"/sessions/{session_id}/candidates",
                {"limit": "1", "sql": "1"}, None,
            )
            assert status == 200
            assert (
                json.loads(text)["candidates"][0]["mapping"]
                == reference["candidates"][0]["mapping"]
            )
        assert coordinator.reconciler.repair().converged

    def test_decommission_unknown_and_last_shard_are_refused(
        self, make_cluster
    ):
        coordinator, _, _ = make_cluster(n_shards=1, replication=1)
        status, _, _ = coordinator.handle(
            "DELETE", "/admin/shards/127.0.0.1:9999", {}, None
        )
        assert status == 404
        status, body, _ = coordinator.handle(
            "DELETE", "/admin/shards/127.0.0.1:9100", {}, None
        )
        assert status == 400
        assert "last shard" in body["error"]

    def test_decommission_is_idempotent_while_draining(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=3)
        run_flow(coordinator)
        coordinator.reconciler.run_pass()
        # Decommission a shard some session actually references, so the
        # drain stays pending across the repeated call.
        session = next(iter(coordinator._sessions.values()))
        victim = session.primary
        first, _, _ = coordinator.handle(
            "DELETE", f"/admin/shards/{victim}", {}, None
        )
        second, body, _ = coordinator.handle(
            "DELETE", f"/admin/shards/{victim}", {}, None
        )
        assert (first, second) == (202, 202)
        assert body["decommissioning"] is True

    def test_rejoin_cancels_a_pending_decommission(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=3)
        run_flow(coordinator)
        session = next(iter(coordinator._sessions.values()))
        victim = session.primary  # referenced: drain cannot finish yet
        coordinator.handle("DELETE", f"/admin/shards/{victim}", {}, None)
        assert victim in coordinator._decommissioning
        status, body, _ = coordinator.handle(
            "POST", "/admin/shards", {}, {"address": victim}
        )
        assert status == 201
        assert body["rejoined"] is True
        assert victim in coordinator.ring.shards
        assert coordinator._decommissioning == set()

    def test_rebalance_defers_when_no_target_is_reachable(
        self, make_cluster
    ):
        coordinator, _, clients = make_cluster(n_shards=2, replication=1)
        session_id, _ = run_flow(coordinator)
        session = coordinator._session(session_id)
        victim = session.primary
        survivor = next(
            shard for shard in coordinator.ring.shards if shard != victim
        )
        coordinator.handle("DELETE", f"/admin/shards/{victim}", {}, None)
        clients[survivor].down = True
        coordinator.reconciler.run_pass()
        # The move could not land anywhere: placement stays put and the
        # session remains queued instead of advancing past the data.
        assert coordinator.reconciler.pending() >= 1
        assert coordinator._session(session_id).primary == victim
        clients[survivor].down = False
        # Its last call failed: no ship until a heartbeat sees it healthy.
        coordinator.health.probe_once()
        drain_rebalance(coordinator)
        assert coordinator._session(session_id).primary == survivor


class TestAdminSurface:
    def test_admin_shards_lists_membership_and_status(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=2)
        status, body, _ = coordinator.handle(
            "GET", "/admin/shards", {}, None
        )
        assert status == 200
        addresses = [entry["address"] for entry in body["shards"]]
        assert addresses == ["127.0.0.1:9100", "127.0.0.1:9101"]
        assert all(entry["on_ring"] for entry in body["shards"])
        assert not any(
            entry["decommissioning"] for entry in body["shards"]
        )
        assert body["pending"] == 0
        assert body["repair"]["enabled"] is True

    def test_healthz_shows_membership_and_rebalance(self, make_cluster):
        coordinator, _, _ = make_cluster(n_shards=3)
        run_flow(coordinator)
        victim = "127.0.0.1:9102"
        coordinator.handle("DELETE", f"/admin/shards/{victim}", {}, None)
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["membership"]["changes"] == 1
        assert victim in body["membership"]["decommissioning"]
        assert body["pending"] >= 1
