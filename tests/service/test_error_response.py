"""Both front ends map request errors to the same statuses.

``error_response`` is the one exception-to-status ladder behind
``ServiceApp.handle`` and ``CoordinatorApp.handle``, and the shared
request frame holds the one 500 boundary.  Each case raises the error
from the app's dispatcher and pins the status, body keys and headers
the client sees.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, CoordinatorApp
from repro.exceptions import (
    DatasetError,
    DeadlineExceeded,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SessionError,
    ShardUnavailableError,
    UnknownSessionError,
)
from repro.service.validation import BadRequest

#: (error, status, body keys, headers) for every handled error class.
CASES = [
    (BadRequest("missing field"), 400, {"error"}, {}),
    (UnknownSessionError("s1"), 404, {"error"}, {}),
    (
        ServiceOverloadedError("queue full", retry_after_s=1.5),
        429, {"error", "retry_after_s"}, {"Retry-After": "2"},
    ),
    (
        ServiceUnavailableError("draining", retry_after_s=3.0,
                                reason="drain"),
        503, {"error", "reason", "retry_after_s"}, {"Retry-After": "3"},
    ),
    (DeadlineExceeded("search", 5.0), 504, {"error"}, {}),
    (SessionError("row 0 is incomplete"), 400, {"error"}, {}),
    (ShardUnavailableError("127.0.0.1:1", "refused"), 400, {"error"}, {}),
    (DatasetError("no such dataset"), 400, {"error"}, {}),
]


@pytest.fixture(params=["service", "coordinator"])
def front_end(request, make_app):
    if request.param == "service":
        yield make_app()
        return
    app = CoordinatorApp(
        ClusterConfig(shards=("127.0.0.1:9100", "127.0.0.1:9101")),
        start_background=False,
    )
    yield app
    app.close()


def _raise_from_dispatch(app, monkeypatch, error):
    def dispatch(*_args):
        raise error

    monkeypatch.setattr(app, "_dispatch", dispatch)
    return app.handle("GET", "/sessions/s1")


@pytest.mark.parametrize(
    ("error", "status", "keys", "headers"), CASES,
    ids=[type(case[0]).__name__ for case in CASES],
)
def test_handled_errors_map_identically(
    front_end, monkeypatch, error, status, keys, headers
):
    got_status, body, got_headers = _raise_from_dispatch(
        front_end, monkeypatch, error
    )
    assert got_status == status
    assert set(body) == keys
    assert body["error"] == str(error)
    if "retry_after_s" in keys:
        assert body["retry_after_s"] == error.retry_after_s
    if "reason" in keys:
        assert body["reason"] == error.reason
    got_headers = {k: v for k, v in got_headers.items() if k != "X-Request-Id"}
    assert got_headers == headers


def test_unexpected_errors_hit_the_one_shared_500(front_end, monkeypatch):
    status, body, headers = _raise_from_dispatch(
        front_end, monkeypatch, RuntimeError("boom")
    )
    assert status == 500
    assert body == {"error": "RuntimeError: boom"}
    assert "Retry-After" not in headers
