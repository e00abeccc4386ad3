"""Both front ends read ``POST /sessions {"on_irrelevant": ...}`` alike.

``mweaver serve`` and the cluster coordinator parse the field through
the one ``irrelevance_policy`` validator: ``"ignore"`` (the default)
reverts an input that matches no candidate, ``"apply"`` keeps it, and
any other value is a 400.  Driving both with the same bodies must give
the same statuses and the same candidates, and ``serve`` journals the
policy so a recovered session keeps it.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterConfig, CoordinatorApp, InProcessShardClient

SHARD = "127.0.0.1:9100"

#: A complete running-example row, then a row nothing in the database
#: matches: irrelevant inputs under either policy.
CELLS = (
    (0, 0, "Avatar"),
    (0, 1, "James Cameron"),
    (1, 0, "No Such Movie"),
    (1, 1, "Nobody At All"),
)


@pytest.fixture(params=["service", "coordinator"])
def front_end(request, make_app):
    if request.param == "service":
        yield make_app()
        return
    coordinator = CoordinatorApp(
        ClusterConfig(shards=(SHARD,), replication=1),
        clients={SHARD: InProcessShardClient(SHARD, make_app(shard_mode=True))},
        start_background=False,
    )
    yield coordinator
    coordinator.close()


def _json(payload):
    """The coordinator passes shard replies through as JSON text."""
    return json.loads(payload) if isinstance(payload, str) else payload


def _feed(app, body):
    """Create a session with ``body``, feed :data:`CELLS`; return
    ``(applied flags, candidate count)``."""
    status, created, _ = app.handle("POST", "/sessions", {}, body)
    assert status == 201, created
    session_id = created["session_id"]
    applied = []
    for row, column, value in CELLS:
        status, state, _ = app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": row, "column": column, "value": value},
        )
        assert status == 200, state
        applied.append(state["applied"])
    status, ranked, _ = app.handle(
        "GET", f"/sessions/{session_id}/candidates", {}, None
    )
    assert status == 200, ranked
    return applied, _json(ranked)["n_candidates"]


@pytest.mark.parametrize(
    "body, expected",
    [
        ({}, ([True, True, False, False], 2)),
        ({"on_irrelevant": "ignore"}, ([True, True, False, False], 2)),
        ({"on_irrelevant": "apply"}, ([True, True, True, True], 0)),
    ],
    ids=["default", "ignore", "apply"],
)
def test_the_policy_decides_what_is_kept(front_end, body, expected):
    assert _feed(front_end, body) == expected


@pytest.mark.parametrize("policy", ["explode", "", 1, None, ["apply"]])
def test_an_unknown_policy_is_a_400(front_end, policy):
    status, body, _ = front_end.handle(
        "POST", "/sessions", {}, {"on_irrelevant": policy}
    )
    assert status == 400
    assert body["error"] == "on_irrelevant must be 'ignore' or 'apply'"
    status, body, _ = front_end.handle("GET", "/sessions", {}, None)
    assert _json(body)["sessions"] == []


def test_serve_journals_the_policy(make_app, tmp_path):
    first = make_app(journal_dir=str(tmp_path))
    status, created, _ = first.handle(
        "POST", "/sessions", {}, {"on_irrelevant": "apply"}
    )
    assert status == 201, created
    session_id = created["session_id"]
    first.close()
    second = make_app(journal_dir=str(tmp_path))
    assert second.recovered_sessions == 1
    recovered = second.sessions.get(session_id).session
    assert recovered.on_irrelevant == "apply"
