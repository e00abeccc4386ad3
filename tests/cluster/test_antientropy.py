"""Tests for the reconciler's anti-entropy scan (digest comparison + reseat)."""

from __future__ import annotations

import json

import pytest

from repro.cluster import grid_digest
from tests.cluster.conftest import run_flow


def seed_flow(coordinator):
    session_id, _ = run_flow(coordinator)
    coordinator.reconciler.run_pass()
    return session_id


class TestGridDigest:
    def test_insertion_order_does_not_matter(self):
        a = {(0, 0): "Avatar", (0, 1): "James Cameron"}
        b = {(0, 1): "James Cameron", (0, 0): "Avatar"}
        assert grid_digest(a) == grid_digest(b)

    def test_normalization_matches_the_spreadsheet(self):
        # The spreadsheet strips values and drops empty cells; the
        # digest must hash the padded and clean forms identically.
        padded = {(0, 0): "  Avatar ", (1, 0): "   "}
        clean = {(0, 0): "Avatar"}
        assert grid_digest(padded) == grid_digest(clean)

    def test_content_changes_change_the_digest(self):
        assert grid_digest({(0, 0): "Avatar"}) != grid_digest(
            {(0, 0): "Titanic"}
        )


class TestRepairRounds:
    def test_healthy_cluster_converges_with_no_reseats(self, make_cluster):
        coordinator, _, _ = make_cluster()
        seed_flow(coordinator)
        report = coordinator.reconciler.repair()
        assert report.pairs == 2  # R=2: primary + one secondary
        assert report.missing == 0
        assert report.divergent == 0
        assert report.reseated == 0
        assert report.converged
        assert coordinator.reconciler.converged

    def test_coordinator_and_shard_digests_agree_after_writes(
        self, make_cluster
    ):
        coordinator, apps, _ = make_cluster()
        session_id, _ = run_flow(coordinator)
        # Padded input: the shard strips it; the coordinator's mirror
        # must strip identically or repair would thrash forever.
        status, body, _ = coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 2, "column": 0, "value": "  Avatar  "},
        )
        assert status == 200 and body["applied"], body
        session = coordinator._session(session_id)
        expected = grid_digest(session.cells)
        primary_app = apps[session.primary]
        status, payload, _ = primary_app.handle(
            "GET", "/admin/digest", {}, None
        )
        assert status == 200
        assert payload["sessions"][session_id]["digest"] == expected

    def test_missing_replica_is_reseated_from_the_journal(
        self, make_cluster
    ):
        coordinator, apps, _ = make_cluster()
        session_id = seed_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            shard for shard in session.replicas
            if shard != session.primary
        )
        # The replica loses the session (restart, eviction, ...).
        status, _, _ = apps[secondary].handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204
        report = coordinator.reconciler.repair()
        assert report.missing == 1
        assert report.reseated == 1
        assert not report.converged
        # The replica holds the grid again; the next round is clean.
        status, payload, _ = apps[secondary].handle(
            "GET", "/admin/digest", {}, None
        )
        assert payload["sessions"][session_id]["digest"] == grid_digest(
            session.cells
        )
        assert coordinator.reconciler.repair().converged

    def test_divergent_replica_is_reseated(self, make_cluster):
        coordinator, apps, _ = make_cluster()
        session_id = seed_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            shard for shard in session.replicas
            if shard != session.primary
        )
        # Corrupt the replica: restore it with a truncated grid.
        status, _, _ = apps[secondary].handle(
            "POST", f"/admin/sessions/{session_id}/restore", {},
            {
                "dataset": session.dataset,
                "columns": list(session.columns),
                "cells": [[0, 0, "Avatar"]],
            },
        )
        assert status == 200
        report = coordinator.reconciler.repair()
        assert report.divergent == 1
        assert report.reseated == 1
        assert coordinator.reconciler.repair().converged

    def test_down_replica_counts_unverified_until_it_returns(
        self, make_cluster
    ):
        coordinator, _, clients = make_cluster()
        session_id = seed_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            shard for shard in session.replicas
            if shard != session.primary
        )
        clients[secondary].down = True
        report = coordinator.reconciler.repair()
        assert report.unverified >= 1
        assert not report.converged
        clients[secondary].down = False
        # Re-admit through the sustained-healthy window.
        coordinator.health.probe_once()
        coordinator.health.probe_once()
        assert coordinator.reconciler.repair().converged

    def test_exhausted_pass_budget_resumes_in_fifo_order(
        self, make_cluster
    ):
        coordinator, _, _ = make_cluster()
        flows = [run_flow(coordinator)[0] for _ in range(4)]
        # Each secondary needs one ship; a budget of one reaches only
        # the oldest dirty session, the rest keep their place in line.
        assert coordinator.reconciler.run_pass(max_work=1) == 1
        assert coordinator.reconciler.pending() == 3
        assert list(coordinator.reconciler._dirty) == flows[1:]
        assert coordinator.reconciler.run_pass(max_work=0) == 3
        assert coordinator.reconciler.pending() == 0
        report = coordinator.reconciler.repair()
        assert report.pairs == 8  # 4 sessions x R=2
        assert report.converged

    def test_admin_repair_endpoint_runs_a_synchronous_round(
        self, make_cluster
    ):
        coordinator, apps, _ = make_cluster()
        session_id = seed_flow(coordinator)
        session = coordinator._session(session_id)
        secondary = next(
            shard for shard in session.replicas
            if shard != session.primary
        )
        apps[secondary].handle("DELETE", f"/sessions/{session_id}", {}, None)
        status, body, _ = coordinator.handle(
            "POST", "/admin/repair", {}, None
        )
        assert status == 200
        assert body["round"]["missing"] == 1
        assert body["round"]["reseated"] == 1
        assert body["total_reseats"] == 1

    def test_healthz_reports_repair_state(self, make_cluster):
        coordinator, _, _ = make_cluster()
        seed_flow(coordinator)
        coordinator.reconciler.repair()
        status, body, _ = coordinator.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["repair"]["rounds"] == 1
        assert body["repair"]["converged"] is True
        assert body["repair"]["last_round"]["pairs"] == 2
        assert body["pending"] == 0

    def test_deleted_sessions_drop_out_of_the_repair_view(
        self, make_cluster
    ):
        coordinator, _, _ = make_cluster()
        session_id, _ = run_flow(coordinator)  # still dirty
        status, _, _ = coordinator.handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204
        # The dirty mark is dropped without shipping anything.
        assert coordinator.reconciler.run_pass() == 0
        assert coordinator.reconciler.pending() == 0
        report = coordinator.reconciler.repair()
        assert report.sessions == 0
        assert report.pairs == 0
        assert report.converged


class TestRepairCorrectness:
    def test_repaired_replica_answers_the_converged_candidate(
        self, make_cluster
    ):
        """After kill-the-primary + repair, the replica's candidates
        equal the unfaulted run's — zero accepted-state loss."""
        coordinator, apps, clients = make_cluster()
        session_id, reference = run_flow(coordinator)
        coordinator.reconciler.run_pass()
        session = coordinator._session(session_id)
        old_primary = session.primary
        clients[old_primary].down = True
        coordinator.health.record_failure(old_primary)
        coordinator.health.record_failure(old_primary)
        assert not coordinator.health.is_up(old_primary)
        report = coordinator.reconciler.repair()
        assert report.unverified >= 1  # the dead shard's pairs
        status, text, _ = coordinator.handle(
            "GET", f"/sessions/{session_id}/candidates",
            {"limit": "1", "sql": "1"}, None,
        )
        assert status == 200
        failed_over = json.loads(text)
        assert (
            failed_over["candidates"][0]["mapping"]
            == reference["candidates"][0]["mapping"]
        )
