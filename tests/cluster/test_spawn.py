"""Tests for the subprocess harness (:mod:`repro.cluster.spawn`).

Most of spawn.py is exercised implicitly by the chaos suite; these
cover the pieces with subtle failure modes — the start-failure and
terminate cleanup paths (no leaked reader thread or stdout fd) and port
pinning for supervisor respawns.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ServerProcess, ShardProcess

pytestmark = pytest.mark.slow  # spawns real python subprocesses


class TestStartFailureCleanup:
    def test_early_exit_raises_and_releases_reader_and_pipe(self):
        # `python -m repro <garbage>` exits immediately with argparse's
        # code 2, never printing a listening line.
        proc = ServerProcess(["definitely-not-a-subcommand"], name="bad")
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="exited with code"):
            proc.start(startup_timeout_s=30.0)
        assert proc.process is not None
        assert proc.process.poll() is not None
        # The reader thread was joined, not leaked...
        assert proc._reader is None
        assert threading.active_count() == before
        # ...and the child's stdout pipe is closed (no fd leak).
        assert proc.process.stdout.closed

    def test_timeout_raises_and_releases_reader_and_pipe(self):
        # `mweaver top` keeps polling a dead URL without ever printing
        # a listening line: the startup timeout path, deterministically.
        proc = ServerProcess(
            ["top", "--url", "http://127.0.0.1:9", "--interval", "0.2"],
            name="silent",
        )
        with pytest.raises(RuntimeError, match="did not report"):
            proc.start(startup_timeout_s=1.0)
        assert proc.process is not None
        assert proc.process.poll() is not None  # killed by cleanup
        assert proc._reader is None
        assert proc.process.stdout.closed

    def test_failed_start_can_be_retried(self):
        # The supervisor retries starts in a loop; a failed instance
        # must leave no state that poisons the next attempt.
        proc = ServerProcess(["definitely-not-a-subcommand"], name="bad")
        for _ in range(3):
            with pytest.raises(RuntimeError):
                proc.start(startup_timeout_s=30.0)
            assert proc._reader is None


class TestTerminateCleanup:
    def test_terminate_releases_reader_and_pipe(self):
        proc = ShardProcess(workers=1, name="terminated").start()
        assert proc.terminate() == 0  # SIGTERM drains and exits 0
        assert proc._reader is None
        assert proc.process.stdout.closed
        assert "drained in" in proc.output()


class TestPinnedArgs:
    def test_pinned_args_rewrites_the_bound_port(self):
        proc = ServerProcess(
            ["shard", "--host", "127.0.0.1", "--port", "0"], name="s"
        )
        proc.port = 9137  # as discovered from the listening line
        assert proc.pinned_args() == [
            "shard", "--host", "127.0.0.1", "--port", "9137"
        ]

    def test_pinned_args_without_a_bound_port_is_verbatim(self):
        proc = ServerProcess(["shard", "--port", "0"], name="s")
        assert proc.pinned_args() == ["shard", "--port", "0"]
        assert proc.pinned_args() is not proc.args  # a copy, not a view
