"""Tests for the coordinator: routing, failover, replication, recovery.

All over in-process shard apps (see conftest) — deterministic, no
sockets, background threads off.  The invariant under test everywhere:
killing any single shard with R=2 loses zero accepted session state
and never surfaces a 500.
"""

from __future__ import annotations

import json

import pytest

from tests.cluster.conftest import FLOW_CELLS, mark_down, run_flow


def _candidates(coordinator, session_id):
    status, text, _ = coordinator.handle(
        "GET", f"/sessions/{session_id}/candidates",
        {"limit": "1", "sql": "1"}, None,
    )
    assert status == 200, text
    return json.loads(text)


class TestHappyPath:
    def test_create_places_an_r_way_replica_set(self, make_cluster):
        coordinator, _apps, _clients = make_cluster()
        status, body, _ = coordinator.handle("POST", "/sessions", {}, {})
        assert status == 201, body
        assert len(body["replicas"]) == 2
        assert body["primary"] == body["replicas"][0]
        assert len(set(body["replicas"])) == 2

    def test_flow_matches_a_single_node_answer(
        self, make_cluster, cluster_registry
    ):
        from repro.service.app import ServiceApp
        from repro.service.config import ServiceConfig

        coordinator, _apps, _clients = make_cluster()
        _session, top = run_flow(coordinator)
        single = ServiceApp(
            ServiceConfig(datasets=("running",), workers=2),
            registry=cluster_registry,
        )
        try:
            status, body, _ = single.handle("POST", "/sessions", {}, {})
            session_id = body["session_id"]
            for row, column, value in FLOW_CELLS:
                status, body, _ = single.handle(
                    "POST", f"/sessions/{session_id}/cells", {},
                    {"row": row, "column": column, "value": value},
                )
                assert status == 200
            status, expected, _ = single.handle(
                "GET", f"/sessions/{session_id}/candidates",
                {"limit": "1", "sql": "1"}, None,
            )
            assert status == 200
        finally:
            single.close()
        assert top["candidates"] == expected["candidates"]

    def test_session_calls_pin_to_the_primary(self, make_cluster):
        coordinator, _apps, clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        session = coordinator._session(session_id)
        secondaries = [s for s in session.replicas if s != session.primary]
        for shard in secondaries:
            session_calls = [
                path for _method, path in clients[shard].calls
                if f"/sessions/{session_id}" in path
                and "restore" not in path
            ]
            assert session_calls == []

    def test_list_and_delete(self, make_cluster):
        coordinator, apps, _clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        status, body, _ = coordinator.handle("GET", "/sessions", {}, None)
        assert status == 200 and body["sessions"] == [session_id]
        status, _body, _ = coordinator.handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204
        # Dropped everywhere, not just in the coordinator's table.
        for app in apps.values():
            assert session_id not in app.sessions.ids()
        status, _body, _ = coordinator.handle(
            "GET", f"/sessions/{session_id}", {}, None
        )
        assert status == 404

    def test_validation_errors(self, make_cluster):
        coordinator, _apps, _clients = make_cluster()
        status, _body, _ = coordinator.handle(
            "POST", "/sessions", {}, {"dataset": "nope"}
        )
        assert status == 400
        status, _body, _ = coordinator.handle(
            "GET", "/sessions/ghost", {}, None
        )
        assert status == 404
        status, _body, _ = coordinator.handle(
            "POST", "/sessions", {}, {"columns": []}
        )
        assert status == 400

    def test_session_table_cap_answers_429(self, make_cluster):
        coordinator, _apps, _clients = make_cluster(max_sessions=1)
        status, _body, _ = coordinator.handle("POST", "/sessions", {}, {})
        assert status == 201
        status, _body, headers = coordinator.handle(
            "POST", "/sessions", {}, {}
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1


class TestFailover:
    def test_primary_loss_loses_zero_accepted_state(self, make_cluster):
        coordinator, _apps, clients = make_cluster()
        session_id, before = run_flow(coordinator)
        session = coordinator._session(session_id)
        old_primary = session.primary

        clients[old_primary].down = True
        mark_down(coordinator, old_primary)

        after = _candidates(coordinator, session_id)
        assert after["candidates"] == before["candidates"]
        assert session.primary != old_primary
        assert session.primary in session.replicas
        assert coordinator.failovers == 1
        assert session.failovers == 1

    def test_cold_replica_is_reseated_from_the_journaled_grid(
        self, make_cluster
    ):
        """Without a replication flush the secondary has never heard of
        the session: failover must ship a restore, then serve."""
        coordinator, _apps, clients = make_cluster()
        session_id, before = run_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            s for s in session.replicas if s != session.primary
        )
        assert coordinator.reconciler.pending() > 0  # not yet shipped

        clients[session.primary].down = True
        mark_down(coordinator, session.primary)
        after = _candidates(coordinator, session_id)
        assert after["candidates"] == before["candidates"]
        restores = [
            path for _m, path in clients[secondary].calls
            if path.endswith("/restore")
        ]
        assert len(restores) >= 1

    def test_warm_replica_needs_no_restore(self, make_cluster):
        coordinator, apps, clients = make_cluster()
        session_id, before = run_flow(coordinator)
        coordinator.reconciler.run_pass()
        assert coordinator.reconciler.pending() == 0
        session = coordinator._session(session_id)
        secondary = next(
            s for s in session.replicas if s != session.primary
        )
        # The background replica already holds the full grid.
        assert session_id in apps[secondary].sessions.ids()

        restores_before = sum(
            1 for _m, path in clients[secondary].calls
            if path.endswith("/restore")
        )
        clients[session.primary].down = True
        mark_down(coordinator, session.primary)
        after = _candidates(coordinator, session_id)
        assert after["candidates"] == before["candidates"]
        restores_after = sum(
            1 for _m, path in clients[secondary].calls
            if path.endswith("/restore")
        )
        assert restores_after == restores_before

    def test_session_keeps_accepting_cells_after_failover(
        self, make_cluster
    ):
        coordinator, _apps, clients = make_cluster()
        session_id, _before = run_flow(coordinator)
        session = coordinator._session(session_id)
        clients[session.primary].down = True
        mark_down(coordinator, session.primary)
        status, body, _ = coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 2, "column": 0, "value": "Titanic"},
        )
        assert status == 200, body
        assert body["applied"] is True
        assert (2, 0) in session.cells

    def test_a_lost_reply_does_not_leave_an_unaccepted_cell(
        self, make_cluster
    ):
        """The primary applies a write but its reply is lost and no
        replica can take over: the write is refused, and the primary is
        re-seated from the journaled grid before it serves again."""
        from repro.exceptions import ShardUnavailableError

        coordinator, _apps, clients = make_cluster()
        session_id, _before = run_flow(coordinator)
        coordinator.reconciler.run_pass()
        session = coordinator._session(session_id)
        primary = session.primary
        for shard in session.replicas:
            if shard != primary:
                clients[shard].down = True
                mark_down(coordinator, shard)
        client = clients[primary]
        applied = client.call

        def lose_reply(method, path, query=None, body=None):
            applied(method, path, query, body)
            raise ShardUnavailableError(primary, "reply lost")

        client.call = lose_reply
        status, body, _ = coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 2, "column": 0, "value": "Titanic"},
        )
        client.call = applied
        assert status == 503, body
        assert (2, 0) not in session.cells
        assert primary not in session.synced
        status, text, _ = coordinator.handle(
            "GET", f"/sessions/{session_id}", {}, None
        )
        assert status == 200, text
        assert json.loads(text)["samples"] == len(FLOW_CELLS)

    def test_every_replica_down_is_503_shard_down_not_500(
        self, make_cluster
    ):
        coordinator, _apps, clients = make_cluster()
        session_id, _before = run_flow(coordinator)
        session = coordinator._session(session_id)
        for shard in session.replicas:
            clients[shard].down = True
            mark_down(coordinator, shard)
        status, body, headers = coordinator.handle(
            "GET", f"/sessions/{session_id}/candidates", {}, None
        )
        assert status == 503
        assert body["reason"] == "shard_down"
        assert int(headers["Retry-After"]) >= 1
        # The coordinator itself still answers.
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["status"] == "degraded"

    def test_any_single_shard_loss_is_survivable(self, make_cluster):
        """The acceptance property, exhaustively: whichever one shard
        dies, the session answers identically and nothing 500s."""
        for victim_index in range(3):
            coordinator, _apps, clients = make_cluster()
            session_id, before = run_flow(coordinator)
            victim = coordinator.config.shards[victim_index]
            clients[victim].down = True
            mark_down(coordinator, victim)
            after = _candidates(coordinator, session_id)
            assert after["candidates"] == before["candidates"], victim
            status, body, _ = coordinator.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": 2, "column": 1, "value": "Steven Spielberg"},
            )
            assert status == 200, (victim, body)

    def test_shard_refusals_pass_through_not_failover(self, make_cluster):
        """A 429 from a live shard is backpressure, not death: the
        coordinator forwards it instead of stampeding the replica."""
        coordinator, apps, _clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        session = coordinator._session(session_id)
        primary_app = apps[session.primary]

        original = primary_app.handle

        def refusing(method, path, query=None, body=None):
            if path.endswith("/cells"):
                return 429, {"error": "busy"}, {"Retry-After": "7"}
            return original(method, path, query, body)

        primary_app.handle = refusing
        try:
            status, _body, headers = coordinator.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": 2, "column": 0, "value": "Titanic"},
            )
        finally:
            primary_app.handle = original
        assert status == 429
        assert headers["Retry-After"] == "7"
        assert session.primary in session.replicas
        assert coordinator.failovers == 0


class TestReplication:
    def test_flush_ships_the_grid_to_every_replica(self, make_cluster):
        coordinator, apps, _clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        coordinator.reconciler.run_pass()
        session = coordinator._session(session_id)
        assert session.synced == set(session.replicas)
        for shard in session.replicas:
            assert session_id in apps[shard].sessions.ids()

    def test_down_replica_stays_marked_dirty(self, make_cluster):
        coordinator, _apps, clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            s for s in session.replicas if s != session.primary
        )
        clients[secondary].down = True
        coordinator.reconciler.run_pass()
        # Could not ship: the session stays pending for the next pass.
        assert coordinator.reconciler.pending() == 1
        assert secondary not in session.synced
        clients[secondary].down = False
        # Its last call failed: no ship until a heartbeat sees it healthy.
        coordinator.reconciler.run_pass()
        assert secondary not in session.synced
        coordinator.health.probe_once()
        coordinator.reconciler.run_pass()
        assert coordinator.reconciler.pending() == 0
        assert secondary in session.synced

    def test_unapplied_inputs_are_not_replicated(self, make_cluster):
        coordinator, _apps, _clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        coordinator.reconciler.run_pass()
        session = coordinator._session(session_id)
        cells_before = dict(session.cells)
        synced_before = set(session.synced)
        status, body, _ = coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 2, "column": 0, "value": "No Such Movie Anywhere"},
        )
        assert status == 200, body
        assert body["applied"] is False
        assert session.cells == cells_before
        # Nothing changed, so every replica still holds the grid and
        # nothing is queued for shipping.
        assert session.synced == synced_before
        assert coordinator.reconciler.pending() == 0


class TestJournalRecovery:
    def test_restart_recovers_the_session_table(
        self, make_cluster, tmp_path
    ):
        from repro.cluster import ClusterConfig, CoordinatorApp

        coordinator, _apps, clients = make_cluster(
            journal_dir=str(tmp_path)
        )
        session_id, before = run_flow(coordinator)
        coordinator.close()

        reborn = CoordinatorApp(
            ClusterConfig(
                shards=coordinator.config.shards,
                replication=2,
                journal_dir=str(tmp_path),
                heartbeat_interval_s=0.05,
                failure_threshold=2,
            ),
            clients=clients,
            start_background=False,
        )
        try:
            assert reborn.recovered_sessions == 1
            session = reborn._session(session_id)
            assert session.cells == {
                (row, column): value for row, column, value in FLOW_CELLS
            }
            after = _candidates(reborn, session_id)
            assert after["candidates"] == before["candidates"]
        finally:
            reborn.close()

    def test_recovery_reseats_a_shard_that_lost_everything(
        self, make_cluster, tmp_path
    ):
        """Coordinator journal is the source of truth: even when every
        shard forgot the session (full-fleet restart), the first touch
        re-ships the grid and the answer is unchanged."""
        from repro.cluster import ClusterConfig, CoordinatorApp

        coordinator, apps, clients = make_cluster(
            journal_dir=str(tmp_path)
        )
        session_id, before = run_flow(coordinator)
        coordinator.close()
        for app in apps.values():
            if session_id in app.sessions.ids():
                app.sessions.remove(session_id)

        reborn = CoordinatorApp(
            ClusterConfig(
                shards=coordinator.config.shards,
                replication=2,
                journal_dir=str(tmp_path),
                heartbeat_interval_s=0.05,
                failure_threshold=2,
            ),
            clients=clients,
            start_background=False,
        )
        try:
            after = _candidates(reborn, session_id)
            assert after["candidates"] == before["candidates"]
        finally:
            reborn.close()

    def test_deleted_sessions_stay_deleted_after_restart(
        self, make_cluster, tmp_path
    ):
        from repro.cluster import ClusterConfig, CoordinatorApp

        coordinator, _apps, clients = make_cluster(
            journal_dir=str(tmp_path)
        )
        session_id, _top = run_flow(coordinator)
        status, _body, _ = coordinator.handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204
        coordinator.close()

        reborn = CoordinatorApp(
            ClusterConfig(
                shards=coordinator.config.shards,
                replication=2,
                journal_dir=str(tmp_path),
                heartbeat_interval_s=0.05,
                failure_threshold=2,
            ),
            clients=clients,
            start_background=False,
        )
        try:
            assert reborn.recovered_sessions == 0
        finally:
            reborn.close()


class TestDrainAndHealth:
    def test_drain_refuses_new_work_but_healthz_answers(
        self, make_cluster
    ):
        coordinator, _apps, _clients = make_cluster()
        coordinator.begin_drain()
        status, body, _ = coordinator.handle("POST", "/sessions", {}, {})
        assert status == 503 and body["reason"] == "drain"
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200 and body["draining"] is True
        status, _body, headers = coordinator.handle(
            "GET", "/healthz", {"ready": "1"}, None
        )
        assert status == 503
        assert "Retry-After" in headers

    def test_not_ready_once_every_shard_is_down(self, make_cluster):
        coordinator, _apps, _clients = make_cluster()
        for shard in coordinator.health.shards():
            mark_down(coordinator, shard)
        status, body, headers = coordinator.handle(
            "GET", "/healthz", {"ready": "1"}, None
        )
        assert status == 503
        assert body["ready"] is False
        assert body["ready_blockers"] == ["no_healthy_shard"]
        assert int(headers["Retry-After"]) >= 1
        # Liveness still answers: the coordinator itself is fine.
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["status"] == "degraded"
        assert body["shards_up"] == 0
        assert all(
            entry["consecutive_failures"] >= 2 for entry in body["shards"]
        )

    def test_healthz_reads_the_decommission_set_under_the_lock(
        self, make_cluster
    ):
        """The reconciler discards from the set under the membership
        lock; an unlocked read can die with "Set changed size during
        iteration" and turn ``/healthz`` into a 500."""
        coordinator, _apps, _clients = make_cluster()
        lock = coordinator._membership_lock

        class LockCheckedSet(set):
            def __iter__(self):
                assert lock._is_owned(), "read without _membership_lock"
                return super().__iter__()

        shard = coordinator.health.shards()[0]
        coordinator._decommissioning = LockCheckedSet({shard})
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200, body
        assert body["membership"]["decommissioning"] == [shard]

    def test_healthz_placement_names_the_primary(self, make_cluster):
        coordinator, _apps, _clients = make_cluster()
        session_id, _top = run_flow(coordinator)
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200
        placement = body["sessions"]["placement"][session_id]
        assert placement["primary"] in placement["replicas"]
        assert placement["cells"] == len(FLOW_CELLS)
        assert placement["failovers"] == 0

    def test_metrics_endpoint_includes_cluster_gauges(self, make_cluster):
        import repro.obs as obs

        # scoped(), not enable_metrics(): the global registry must stay
        # pristine for the service-tier obs tests that run later.
        with obs.scoped(trace=False):
            coordinator, _apps, _clients = make_cluster()
            _session, _top = run_flow(coordinator)
            status, body, _ = coordinator.handle("GET", "/metrics", {}, None)
            assert status == 200
            assert body["cluster"]["sessions"] == 1
            assert body["cluster"]["shards_up"] == 3
            status, text, headers = coordinator.handle(
                "GET", "/metrics", {"format": "prometheus"}, None
            )
        assert status == 200
        assert "repro_cluster_sessions_live" in text
        # The shared front end times every route, as the service does.
        assert (
            'repro_cluster_request_seconds_count{route="POST '
            '/sessions/{id}/cells"} 4'
        ) in text
        assert headers["Content-Type"].startswith("text/plain")

    def test_metrics_endpoint_counts_statuses_beside_latency_buckets(
        self, make_cluster, monkeypatch
    ):
        """The coordinator exports what the burn-rate rules read.

        Clients talk to the coordinator, so the documented availability
        and latency recording rules run over its ``repro_cluster_*``
        series: requests by status and the global ``le="0.25"`` bucket.
        """
        import repro.obs as obs
        from repro.obs.prometheus import parse_exposition

        def boom(*_args):
            raise RuntimeError("boom")

        with obs.scoped(trace=False):
            coordinator, _apps, _clients = make_cluster()
            status, _, _ = coordinator.handle(
                "GET", "/sessions/sXXXX", {}, None
            )
            assert status == 404
            monkeypatch.setattr(coordinator, "_dispatch", boom)
            status, _, _ = coordinator.handle("GET", "/sessions", {}, None)
            assert status == 500
            monkeypatch.undo()
            status, text, _ = coordinator.handle(
                "GET", "/metrics", {"format": "prometheus"}, None
            )
        assert status == 200
        parsed = parse_exposition(text)
        statuses = {
            (sample["labels"]["route"], sample["labels"]["status"])
            for sample in parsed["repro_cluster_requests_total"]
        }
        assert ("GET /sessions/{id}", "404") in statuses
        assert ("GET /sessions", "500") in statuses
        assert any(
            sample["labels"] == {"le": "0.25"} and sample["value"] >= 2
            for sample in parsed["repro_cluster_request_seconds_bucket"]
        )
