"""Tests for the cluster-internal shard surface on :class:`ServiceApp`.

``shard_mode`` unlocks two routes a coordinator needs — ``POST
/admin/sessions/{id}/restore`` (failover shipping) and ``GET
/admin/digest`` (replica repair scans) — plus the ``applied`` flag on
cell responses that tells the coordinator which inputs to journal
under the journal-only-what-was-kept rule.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def shard(make_app):
    return make_app(shard_mode=True)


def _restore_payload(**overrides):
    payload = {
        "dataset": "running",
        "columns": ["Name", "Director"],
        "on_irrelevant": "ignore",
        "cells": [
            [0, 0, "Avatar"],
            [0, 1, "James Cameron"],
            [1, 0, "Big Fish"],
            [1, 1, "Tim Burton"],
        ],
    }
    payload.update(overrides)
    return payload


class TestGating:
    def test_plain_serve_hides_the_cluster_surface(self, make_app):
        app = make_app()  # shard_mode defaults to False
        status, _, _ = app.handle("GET", "/admin/digest", {}, None)
        assert status == 404
        status, _, _ = app.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        assert status == 404

    def test_shard_mode_exposes_it(self, shard):
        status, body, _ = shard.handle("GET", "/admin/digest", {}, None)
        assert status == 200, body
        status, _, _ = shard.handle(
            "GET", "/locate",
            {"dataset": "running", "sample": "Tim Burton"}, None,
        )
        assert status == 404


class TestRestore:
    def test_restore_builds_an_equivalent_session(self, shard):
        status, body, _ = shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        assert status == 200, body
        assert body["restored"] is True
        assert body["replaced"] is False
        assert body["session_id"] == "x1"
        # The restored session reaches the same candidates as one built
        # by feeding the cells interactively.
        status, restored, _ = shard.handle(
            "GET", "/sessions/x1/candidates", {"limit": "1", "sql": "1"},
            None,
        )
        assert status == 200

        status, body, _ = shard.handle("POST", "/sessions", {}, {})
        fresh_id = body["session_id"]
        for row, column, value in (
            (0, 0, "Avatar"), (0, 1, "James Cameron"),
            (1, 0, "Big Fish"), (1, 1, "Tim Burton"),
        ):
            status, body, _ = shard.handle(
                "POST", f"/sessions/{fresh_id}/cells", {},
                {"row": row, "column": column, "value": value},
            )
            assert status == 200
        status, fresh, _ = shard.handle(
            "GET", f"/sessions/{fresh_id}/candidates",
            {"limit": "1", "sql": "1"}, None,
        )
        assert status == 200
        assert restored["candidates"] == fresh["candidates"]

    def test_restore_is_an_idempotent_replace(self, shard):
        status, body, _ = shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        assert status == 200 and body["replaced"] is False
        # Re-shipping the same state replaces, it does not duplicate.
        status, body, _ = shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        assert status == 200, body
        assert body["replaced"] is True
        assert shard.sessions.ids().count("x1") == 1

    def test_restore_replace_drops_stale_cells(self, shard):
        shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        slim = _restore_payload(cells=[[0, 0, "Avatar"]])
        status, body, _ = shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, slim
        )
        assert status == 200
        assert body["samples"] == 1

    def test_restore_validates_its_payload(self, shard):
        bad = [
            _restore_payload(dataset="nope"),
            _restore_payload(columns=[]),
            _restore_payload(columns="Name"),
            _restore_payload(on_irrelevant="explode"),
            _restore_payload(cells=[[0, 0]]),  # not a triple
            _restore_payload(cells="Avatar"),
        ]
        for payload in bad:
            status, body, _ = shard.handle(
                "POST", "/admin/sessions/x1/restore", {}, payload
            )
            assert status == 400, (payload, body)
        # None of the rejects leaked a half-built session.
        assert "x1" not in shard.sessions.ids()


class TestDigests:
    def test_plain_serve_hides_the_digest_surface(self, make_app):
        app = make_app()
        status, _, _ = app.handle("GET", "/admin/digest", {}, None)
        assert status == 404

    def test_digests_enumerate_every_held_session(self, shard):
        from repro.resilience.journal import grid_digest

        shard.handle(
            "POST", "/admin/sessions/x1/restore", {}, _restore_payload()
        )
        shard.handle(
            "POST", "/admin/sessions/x2/restore", {},
            _restore_payload(cells=[[0, 0, "Avatar"]]),
        )
        status, body, _ = shard.handle("GET", "/admin/digest", {}, None)
        assert status == 200
        assert body["count"] == 2
        assert set(body["sessions"]) == {"x1", "x2"}
        assert body["sessions"]["x1"]["cells"] == 4
        assert body["sessions"]["x2"]["cells"] == 1
        assert body["sessions"]["x2"]["digest"] == grid_digest(
            {(0, 0): "Avatar"}
        )

    def test_restore_reports_the_post_restore_digest(self, shard):
        from repro.resilience.journal import grid_digest

        status, body, _ = shard.handle(
            "POST", "/admin/sessions/x1/restore", {},
            _restore_payload(cells=[[0, 0, "  Avatar  "]]),
        )
        assert status == 200
        # The digest reflects what the spreadsheet *kept* (stripped),
        # which is what the coordinator's anti-entropy loop compares.
        assert body["digest"] == grid_digest({(0, 0): "Avatar"})
        status, listing, _ = shard.handle("GET", "/admin/digest", {}, None)
        assert listing["sessions"]["x1"]["digest"] == body["digest"]

    def test_empty_shard_reports_no_sessions(self, shard):
        status, body, _ = shard.handle("GET", "/admin/digest", {}, None)
        assert status == 200
        assert body == {"sessions": {}, "count": 0}


class TestAppliedFlag:
    def test_kept_cell_reports_applied(self, shard):
        status, body, _ = shard.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        status, body, _ = shard.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 0, "column": 0, "value": "Avatar"},
        )
        assert status == 200
        assert body["applied"] is True

    def test_irrelevant_cell_reports_not_applied(self, shard):
        # Default on_irrelevant="ignore": once candidates exist, a value
        # contradicting all of them is reverted from the spreadsheet, so
        # the coordinator must not journal or replicate it.
        status, body, _ = shard.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        for row, column, value in (
            (0, 0, "Avatar"), (0, 1, "James Cameron"),
            (1, 0, "Big Fish"), (1, 1, "Tim Burton"),
        ):
            status, body, _ = shard.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": row, "column": column, "value": value},
            )
            assert status == 200 and body["applied"] is True, body
        status, body, _ = shard.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 2, "column": 0, "value": "No Such Movie Anywhere"},
        )
        assert status == 200, body
        assert body["applied"] is False

    def test_plain_mode_reports_applied_too(self, make_app):
        # The flag is not gated: single-node clients may use it as well.
        app = make_app()
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        status, body, _ = app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 0, "column": 0, "value": "Avatar"},
        )
        assert status == 200
        assert body["applied"] is True
