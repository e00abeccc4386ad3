"""Subprocess helpers for booting real cluster topologies.

The chaos test, the cluster bench and the CI smoke job all need the
same thing: N ``mweaver shard`` processes plus a coordinator, each a
*real* OS process (so ``kill -9`` means what it means in production),
with stdout parsed for the bound port and readiness polled over HTTP.

:class:`ServerProcess` does the generic work — spawn with ``python -u``
(unbuffered pipes), a reader thread that scans for the
``listening on http://...`` line and keeps draining output so the
child never blocks on a full pipe, readiness polling, SIGTERM/SIGKILL
teardown.  :class:`ShardProcess` and :class:`CoordinatorProcess` are
the two concrete shapes.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import repro

_URL_RE = re.compile(r"listening on http://([\w.\-]+):(\d+)")


def _pythonpath_env() -> dict[str, str]:
    """Child env with this repro package importable."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
    )
    return env


class ServerProcess:
    """One ``python -m repro <subcommand> ...`` child process."""

    def __init__(self, args: list[str], *, name: str = "server") -> None:
        self.args = list(args)
        self.name = name
        self.process: subprocess.Popen | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._url_found = threading.Event()
        self._output: list[str] = []
        self._output_lock = threading.Lock()
        self._reader: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self, *, startup_timeout_s: float = 60.0) -> "ServerProcess":
        """Spawn and wait for the bound address to appear on stdout.

        A failed start (timeout, or the child exiting before it binds)
        cleans up fully — child killed, reader thread joined, stdout
        pipe closed — so a supervisor retrying in a loop does not leak
        one thread and one fd per attempt.
        """
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *self.args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_pythonpath_env(),
            text=True,
        )
        self._reader = threading.Thread(
            target=self._drain_output, name=f"{self.name}-output",
            daemon=True,
        )
        self._reader.start()
        deadline = time.monotonic() + startup_timeout_s
        while not self._url_found.wait(timeout=0.1):
            early_exit = self.process.poll() is not None
            if early_exit or time.monotonic() >= deadline:
                why = (
                    f"exited with code {self.process.poll()} before "
                    f"reporting a listening address"
                    if early_exit else
                    f"did not report a listening address within "
                    f"{startup_timeout_s:g}s"
                )
                self.kill()
                raise RuntimeError(
                    f"{self.name} {why}; output:\n{self.output()}"
                )
        return self

    def _release_output(self) -> None:
        """Join the reader thread and close the exited child's stdout."""
        if self._reader is not None:
            # The reader exits once the dead child's pipe hits EOF.
            self._reader.join(timeout=10.0)
            self._reader = None
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()

    def _drain_output(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            with self._output_lock:
                self._output.append(line)
            if not self._url_found.is_set():
                match = _URL_RE.search(line)
                if match:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    self._url_found.set()

    @property
    def address(self) -> str:
        """``host:port`` once the child has reported its bind."""
        if self.host is None or self.port is None:
            raise RuntimeError(f"{self.name} has no bound address yet")
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        """``http://host:port`` of the child server."""
        return f"http://{self.address}"

    def output(self) -> str:
        """Everything the child printed so far (stdout+stderr)."""
        with self._output_lock:
            return "".join(self._output)

    def pinned_args(self) -> list[str]:
        """The spawn args with ``--port`` pinned to the bound port.

        A supervisor respawning a crashed child must come back on the
        *same* address (the ring and the coordinator's routing table
        key on it), so an OS-assigned ``--port 0`` is rewritten to the
        port the first incarnation actually bound.
        """
        if self.port is None:
            return list(self.args)
        args = list(self.args)
        for index, arg in enumerate(args[:-1]):
            if arg == "--port":
                args[index + 1] = str(self.port)
        return args

    def alive(self) -> bool:
        """True while the child process has not exited."""
        return self.process is not None and self.process.poll() is None

    # -- readiness -----------------------------------------------------

    def request(
        self, method: str, path: str, *, timeout_s: float = 5.0
    ) -> tuple[int, bytes]:
        """One throwaway HTTP request to the child (no keep-alive)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout_s
        )
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_ready(self, *, timeout_s: float = 60.0) -> "ServerProcess":
        """Poll ``/healthz?ready=1`` until it answers 200."""
        deadline = time.monotonic() + timeout_s
        last: Any = None
        while time.monotonic() < deadline:
            if not self.alive():
                raise RuntimeError(
                    f"{self.name} exited during startup; output:\n"
                    f"{self.output()}"
                )
            try:
                status, _ = self.request("GET", "/healthz?ready=1")
                if status == 200:
                    return self
                last = status
            except OSError as error:
                last = error
            time.sleep(0.1)
        raise RuntimeError(
            f"{self.name} not ready within {timeout_s:g}s "
            f"(last: {last}); output:\n{self.output()}"
        )

    # -- teardown ------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL — the chaos primitive: the child gets no chance to
        drain.  This side still joins the reader thread and closes the
        child's stdout pipe."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10.0)
        self._release_output()

    def terminate(self, *, timeout_s: float = 15.0) -> int | None:
        """SIGTERM (graceful drain) and wait; SIGKILL as backstop.

        Returns the exit code once the reader thread has taken all of
        the child's output and its stdout pipe is closed.
        """
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                pass  # kill() below is the backstop
        self.kill()
        return self.process.poll()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.terminate()


class ShardProcess(ServerProcess):
    """One ``mweaver shard`` backend on an OS-assigned port."""

    def __init__(
        self,
        *,
        datasets: str = "running",
        port: int = 0,
        workers: int = 4,
        profile_hz: float = 0.0,
        extra_args: tuple[str, ...] = (),
        name: str = "shard",
    ) -> None:
        args = [
            "shard",
            "--host", "127.0.0.1",
            "--port", str(port),
            "--datasets", datasets,
            "--workers", str(workers),
            "--profile-hz", str(profile_hz),
            *extra_args,
        ]
        super().__init__(args, name=name)


class CoordinatorProcess(ServerProcess):
    """One ``mweaver cluster`` coordinator over the given shards."""

    def __init__(
        self,
        shard_addresses: list[str],
        *,
        port: int = 0,
        replication: int = 2,
        datasets: str = "running",
        journal_dir: str | None = None,
        heartbeat_interval_s: float = 0.25,
        failure_threshold: int = 2,
        readmit_threshold: int | None = None,
        repair_interval_s: float | None = None,
        extra_args: tuple[str, ...] = (),
        name: str = "coordinator",
    ) -> None:
        args = [
            "cluster",
            "--host", "127.0.0.1",
            "--port", str(port),
            "--datasets", datasets,
            "--replication", str(replication),
            "--heartbeat-interval", str(heartbeat_interval_s),
            "--failure-threshold", str(failure_threshold),
        ]
        if readmit_threshold is not None:
            args += ["--readmit-threshold", str(readmit_threshold)]
        if repair_interval_s is not None:
            args += ["--repair-interval", str(repair_interval_s)]
        for address in shard_addresses:
            args += ["--shard", address]
        if journal_dir:
            args += ["--journal-dir", journal_dir]
        args += list(extra_args)
        super().__init__(args, name=name)
