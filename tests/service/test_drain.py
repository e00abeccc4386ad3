"""Graceful drain and readiness: the SIGTERM story.

In-process tests cover the app-level drain machinery (stop admitting,
wait for in-flight, close) and the ``/healthz?ready=1`` readiness
probe.  The drain lifecycle is the shared front end's, so its cases run
against both apps: :class:`TestCoordinatorDrain` reruns them through a
coordinator over one in-process shard.  The slow tests run ``mweaver
serve`` and ``mweaver cluster`` in subprocesses and send them real
signals, asserting the contract: SIGTERM finishes in-flight requests,
flushes the journal, and exits 0.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    CoordinatorApp,
    CoordinatorProcess,
    InProcessShardClient,
    ShardProcess,
)

FIRST_ROW = ((0, 0, "Avatar"), (0, 1, "James Cameron"))


class TestAppDrain:
    @staticmethod
    def managed(app, session_id):
        """The managed session that runs ``session_id``'s inputs."""
        return app.sessions.get(session_id)

    def test_draining_app_refuses_new_work_with_503(self, app):
        app.begin_drain()
        status, body, headers = app.handle("POST", "/sessions", {}, {})
        assert status == 503
        assert body["reason"] == "drain"
        assert int(headers["Retry-After"]) >= 1

    def test_health_endpoints_stay_answerable_while_draining(self, app):
        app.begin_drain()
        status, body, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert body["draining"] is True
        status, _, _ = app.handle("GET", "/metrics", {}, None)
        assert status == 200

    def test_begin_drain_is_idempotent(self, app):
        app.begin_drain()
        app.begin_drain()
        status, _, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200

    def test_drain_waits_for_in_flight_requests(self, app):
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        managed = self.managed(app, session_id)
        entered = threading.Event()

        def slow_input(row, column, value, budget=None):
            entered.set()
            time.sleep(0.4)
            managed.session.spreadsheet.set_cell(row, column, value)

        managed.session.input = slow_input
        results = []

        def request():
            results.append(app.handle(
                "POST", f"/sessions/{session_id}/cells", {},
                {"row": 0, "column": 0, "value": "Avatar"},
            ))

        thread = threading.Thread(target=request)
        thread.start()
        assert entered.wait(5.0)
        clean = app.drain(timeout_s=10.0)
        thread.join(timeout=10.0)
        assert clean is True
        assert app.drain_report["clean"] is True
        assert results and results[0][0] == 200

    def test_wait_idle_times_out_on_stuck_requests(self, app):
        status, body, _ = app.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        managed = self.managed(app, session_id)
        entered = threading.Event()
        release = threading.Event()

        def stuck_input(row, column, value, budget=None):
            entered.set()
            release.wait(10.0)

        managed.session.input = stuck_input
        thread = threading.Thread(target=lambda: app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": 0, "column": 0, "value": "Avatar"},
        ))
        thread.start()
        assert entered.wait(5.0)
        app.begin_drain()
        assert app.wait_idle(0.2) is False  # the unclean-drain signal
        release.set()
        thread.join(timeout=10.0)
        assert app.wait_idle(5.0) is True


class TestReadinessProbe:
    def test_ready_when_healthy(self, app):
        status, body, _ = app.handle("GET", "/healthz", {"ready": "1"}, None)
        assert status == 200
        assert body["ready"] is True
        assert "ready_blockers" not in body

    def test_not_ready_while_draining(self, app):
        app.begin_drain()
        status, body, headers = app.handle(
            "GET", "/healthz", {"ready": "1"}, None
        )
        assert status == 503
        assert body["ready"] is False
        assert body["ready_blockers"] == ["draining"]
        assert int(headers["Retry-After"]) >= 1

    def test_plain_healthz_does_not_carry_ready(self, app):
        status, body, _ = app.handle("GET", "/healthz", {}, None)
        assert status == 200
        assert "ready" not in body


SHARD = "127.0.0.1:9100"


class TestCoordinatorDrain(TestAppDrain):
    """The drain lifecycle through the coordinator's front end."""

    @pytest.fixture
    def app(self, make_app):
        coordinator = CoordinatorApp(
            ClusterConfig(shards=(SHARD,), replication=1),
            clients={
                SHARD: InProcessShardClient(SHARD, make_app(shard_mode=True))
            },
            start_background=False,
        )
        yield coordinator
        coordinator.close()

    @staticmethod
    def managed(app, session_id):
        """The shard's copy of the session runs the inputs."""
        return app.clients[SHARD].app.sessions.get(session_id)

    test_not_ready_while_draining = (
        TestReadinessProbe.test_not_ready_while_draining
    )


# ----------------------------------------------------------------------
# The real thing: signals against a live server process.
# ----------------------------------------------------------------------

def _request(port, method, path, body=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        conn.close()


def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _start_server(tmp_path, env):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--datasets", "running",
            "--journal-dir", str(tmp_path / "journal"),
            "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    deadline = time.monotonic() + 120.0
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
            break
    if port is None:
        process.kill()
        raise AssertionError("server did not report its port in time")
    return process, port


def _sigterm_round_trip(tmp_path):
    """Feed a session, SIGTERM the server, return (exit, output, journal)."""
    env = _serve_env()
    process, port = _start_server(tmp_path, env)
    try:
        status, body = _request(port, "POST", "/sessions", {
            "columns": ["Name", "Director"],
        })
        assert status == 201, body
        session_id = body["session_id"]
        for row, column, value in FIRST_ROW:
            status, body = _request(
                port, "POST", f"/sessions/{session_id}/cells",
                {"row": row, "column": column, "value": value},
            )
            assert status == 200, body
    except BaseException:
        process.kill()
        process.wait(timeout=30.0)
        process.stdout.close()
        raise
    process.send_signal(signal.SIGTERM)
    exit_code = process.wait(timeout=120.0)
    output = process.stdout.read()
    process.stdout.close()
    journal = tmp_path / "journal" / "sessions.journal"
    return exit_code, output, journal, session_id


@pytest.mark.slow
class TestSigtermDrain:
    def test_thread_mode_sigterm_drains_and_flushes(self, tmp_path):
        exit_code, output, journal, session_id = _sigterm_round_trip(tmp_path)
        assert exit_code == 0
        assert "draining" in output
        assert "drained in" in output
        records = [
            json.loads(line)
            for line in journal.read_text().strip().splitlines()
        ]
        assert [r["op"] for r in records] == ["create", "cell", "cell"]
        # The drained journal restores the session on the next boot.
        process, port = _start_server(tmp_path, _serve_env())
        try:
            status, body = _request(port, "GET", f"/sessions/{session_id}")
            assert status == 200, body
            assert body["samples"] == 2
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=120.0)
            process.stdout.close()

    def test_sigint_also_drains(self, tmp_path):
        env = _serve_env()
        process, port = _start_server(tmp_path, env)
        try:
            status, _body = _request(port, "GET", "/healthz")
            assert status == 200
        except BaseException:
            process.kill()
            process.wait(timeout=30.0)
            process.stdout.close()
            raise
        process.send_signal(signal.SIGINT)
        exit_code = process.wait(timeout=120.0)
        output = process.stdout.read()
        process.stdout.close()
        assert exit_code == 0
        assert "drained in" in output

    def test_coordinator_sigterm_drains_to_a_flushed_journal(self, tmp_path):
        with ShardProcess(workers=2) as shard:
            shard.start().wait_ready()
            coordinator = CoordinatorProcess(
                [shard.address], replication=1,
                journal_dir=str(tmp_path / "coord"),
            )
            with coordinator:
                port = coordinator.start().wait_ready().port
                status, body = _request(port, "POST", "/sessions", {
                    "columns": ["Name", "Director"],
                })
                assert status == 201, body
                session_id = body["session_id"]
                for row, column, value in FIRST_ROW:
                    status, body = _request(
                        port, "POST", f"/sessions/{session_id}/cells",
                        {"row": row, "column": column, "value": value},
                    )
                    assert status == 200, body
                exit_code = coordinator.terminate(timeout_s=120.0)
        assert exit_code == 0
        assert "drained in" in coordinator.output()
        journal = tmp_path / "coord" / "cluster.journal"
        records = [
            json.loads(line)
            for line in journal.read_text().strip().splitlines()
        ]
        assert [r["op"] for r in records] == ["create", "cell", "cell"]
        assert {r["session_id"] for r in records} == {session_id}
