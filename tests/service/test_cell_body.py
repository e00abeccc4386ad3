"""Both front ends parse ``POST /sessions/{id}/cells`` bodies alike.

The service and the cluster coordinator read the body through the one
``cell_input`` parser: a value that is not a string or a number, or a
row/column that is a JSON boolean, is a 400 and leaves the grid as it
was, while strings and numbers are stored as their text.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, CoordinatorApp, InProcessShardClient

SHARD = "127.0.0.1:9100"


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


def _grids(app, session_id):
    """Every copy of the session's grid this front end keeps."""
    if isinstance(app, CoordinatorApp):
        shard = app.clients[SHARD].app.sessions.get(session_id)
        return [app._session(session_id).cells, shard.session.spreadsheet.cells()]
    return [app.sessions.get(session_id).session.spreadsheet.cells()]


def _put(app, session_id, body):
    return app.handle("POST", f"/sessions/{session_id}/cells", {}, body)


@pytest.fixture
def session_id(front_end):
    status, body, _ = front_end.handle("POST", "/sessions", {}, {})
    assert status == 201, body
    return body["session_id"]


VALUE_TYPE = "value must be a string or a number"


@pytest.mark.parametrize(
    "body, error",
    [
        ({"row": 0, "column": 0, "value": None}, VALUE_TYPE),
        ({"row": 0, "column": 0, "value": ["Avatar"]}, VALUE_TYPE),
        ({"row": 0, "column": 0, "value": {"v": "Avatar"}}, VALUE_TYPE),
        ({"row": 0, "column": 0, "value": True}, VALUE_TYPE),
        ({"row": True, "column": 0, "value": "Avatar"},
         "row must be an integer"),
        ({"row": 0, "column": False, "value": "Avatar"},
         "column must be an integer"),
        ({"row": 0, "value": "Avatar"}, "provide either column or column_name"),
        ({"column": 0, "value": "Avatar"}, "missing required field 'row'"),
    ],
)
def test_malformed_bodies_are_refused(front_end, session_id, body, error):
    status, reply, _ = _put(front_end, session_id, body)
    assert (status, reply) == (400, {"error": error})
    assert all(grid == {} for grid in _grids(front_end, session_id))


@pytest.mark.parametrize(
    "value, stored",
    [("  Avatar ", "Avatar"), (1999, "1999"), (2.5, "2.5")],
)
def test_strings_and_numbers_are_stored_as_text(
    front_end, session_id, value, stored
):
    status, reply, _ = _put(
        front_end, session_id, {"row": 0, "column": 1, "value": value}
    )
    assert status == 200, reply
    for grid in _grids(front_end, session_id):
        assert grid == {(0, 1): stored}


def test_column_name_and_integer_strings(front_end, session_id):
    status, reply, _ = _put(
        front_end, session_id,
        {"row": "0", "column_name": "Director", "value": "James Cameron"},
    )
    assert status == 200, reply
    for grid in _grids(front_end, session_id):
        assert grid == {(0, 1): "James Cameron"}
