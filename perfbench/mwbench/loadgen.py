"""Keep-alive HTTP clients and the open-loop flow generator.

One process, at most ``nproc`` generator threads, one keep-alive
connection per thread.  Flows start at seeded Poisson arrival times;
a thread that is still busy when the next flow falls due starts it
late, and the flow's first request is timed from its due time, so the
lateness counts against latency instead of hiding.  Nothing is
retried: a refusal or error is a failed request.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

TIMEOUT_S = 30.0
CLIENT_SWITCH_INTERVAL_S = 0.0005


class Client:
    """One keep-alive connection to ``host:port``."""

    def __init__(self, address: str) -> None:
        host, port = address.rsplit(":", 1)
        self._host, self._port = host, int(port)
        self._conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self._host, self._port, timeout=TIMEOUT_S)

    def call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, Any]:
        """``(status, parsed JSON body or None)`` of one request."""
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.reset()
            raise
        return response.status, json.loads(raw) if raw else None

    def reset(self) -> None:
        """Drop the connection; the next call reconnects."""
        self._conn.close()
        self._conn = self._connect()

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


@dataclass
class Run:
    """What one generator run produced."""

    flows: list[Any] = field(default_factory=list)
    #: Seconds each flow started after its due time.
    late_s: list[float] = field(default_factory=list)
    #: From the first due time to the last answer.
    wall_s: float = 0.0


def wait_ready(address: str, deadline: float, poll_s: float = 0.002) -> None:
    """Poll ``/healthz?ready=1`` until it answers 200 or ``deadline`` passes.

    ``deadline`` is a ``time.perf_counter()`` value.  The fine poll keeps
    the wait from adding up to a poll interval to the set-up time.
    """
    client = Client(address)
    try:
        while time.perf_counter() < deadline:
            try:
                if client.call("GET", "/healthz?ready=1")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(poll_s)
    finally:
        client.close()
    raise RuntimeError(f"{address} not ready in time")


def generator_threads() -> int:
    """Generator threads: two, or fewer on a smaller host."""
    return min(2, len(os.sched_getaffinity(0)))


def open_loop(
    address: str,
    arrivals: list[float],
    flow: Callable[[Client, float], Any],
    *,
    lead_s: float = 0.05,
) -> Run:
    """Run ``flow(client, due)`` once per arrival offset, on schedule.

    Results come back in arrival order.  While it runs, this process
    collects no cyclic garbage and hands the interpreter lock between
    its threads every 0.5 ms instead of 5 ms: otherwise a reply that
    lands while the other generator thread parses JSON waits up to a
    whole switch interval, and the client's own pauses would show as
    the server's tail latency.
    """
    switch_interval = sys.getswitchinterval()
    gc_was_enabled = gc.isenabled()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    gc.disable()
    try:
        return _open_loop(address, arrivals, flow, lead_s)
    finally:
        sys.setswitchinterval(switch_interval)
        if gc_was_enabled:
            gc.enable()


def _open_loop(address, arrivals, flow, lead_s) -> Run:
    start = time.perf_counter() + lead_s
    results: list[Any] = [None] * len(arrivals)
    late = [0.0] * len(arrivals)
    next_index = iter(range(len(arrivals)))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def worker() -> None:
        client = Client(address)
        try:
            while True:
                with lock:
                    index = next(next_index, None)
                if index is None:
                    return
                due = start + arrivals[index]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                late[index] = max(0.0, time.perf_counter() - due)
                results[index] = flow(client, due)
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{n}", daemon=True)
        for n in range(generator_threads())
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=arrivals[-1] + 600)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]
    return Run(results, late, time.perf_counter() - start)


def closed_loop(
    address: str, flow: Callable[[Client, float], Any], count: int
) -> list[Any]:
    """``count`` flows back to back on one connection (warm-up)."""
    client = Client(address)
    try:
        return [flow(client, time.perf_counter()) for _ in range(count)]
    finally:
        client.close()
