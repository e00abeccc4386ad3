"""Shard process supervision: watch, respawn with backoff, re-admit.

The coordinator routes *around* a dead shard (the health monitor marks
it down, failover promotes a replica) but nothing brings the process
*back* — until now operators did that by hand.
:class:`ShardSupervisor` closes the loop:

1. **Watch** — each managed :class:`~repro.cluster.spawn.ServerProcess`
   is polled; a child that exited is detected on the next poll.
2. **Respawn** — the child is relaunched with the same args pinned to
   the same port (:meth:`ServerProcess.pinned_args`), after a seeded
   jittered exponential backoff (:data:`RESPAWN_BACKOFF`) keyed on the
   shard's consecutive-failure count.  A crash-looping shard backs off
   to the 2 s cap instead of burning CPU in a respawn storm; a shard
   that comes back cleanly resets its counter.
3. **Re-admit** — nothing to do explicitly: the respawned process
   answers the coordinator's next heartbeats, and once
   ``readmit_threshold`` consecutive probes succeed the health monitor
   routes to it again.

Determinism hooks for tests: ``rng`` (backoff jitter), ``clock`` /
``sleep`` (time), and :meth:`poll_once` (one synchronous sweep, no
thread).  The bench and the chaos suite drive :meth:`poll_once`
directly; production uses :meth:`start`'s daemon thread.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.spawn import ServerProcess
from repro.obs import get_logger, get_metrics
from repro.resilience.retry import RetryPolicy

_log = get_logger(__name__)

#: Respawn backoff after ``n`` consecutive failures:
#: ``min(2 s, 0.05 s * 2**n)`` spread uniformly over [0.5x, 1.5x], so a
#: fleet of restarting shards does not re-collide.
RESPAWN_BACKOFF = RetryPolicy(
    base_delay_s=0.05, multiplier=2.0, max_delay_s=2.0, jitter=0.5
)


@dataclass
class _Managed:
    """One supervised child and its crash history."""

    name: str
    process: ServerProcess
    respawn: Callable[["_Managed"], ServerProcess] | None = None
    #: Consecutive failed incarnations (reset on a healthy respawn).
    failures: int = 0
    #: Earliest clock time the next respawn attempt may run.
    next_attempt_at: float = 0.0
    #: Total successful respawns over this entry's lifetime.
    respawns: int = 0
    last_error: str | None = None
    #: Extra state a custom respawn callable may keep.
    extra: dict[str, Any] = field(default_factory=dict)


class ShardSupervisor:
    """Respawn crashed shard processes with seeded, jittered backoff."""

    def __init__(
        self,
        *,
        seed: int = 0,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
        poll_interval_s: float = 0.25,
        startup_timeout_s: float = 60.0,
    ) -> None:
        self.rng = rng if rng is not None else random.Random(seed)
        self._clock = clock
        self.poll_interval_s = poll_interval_s
        self.startup_timeout_s = startup_timeout_s
        self._lock = threading.RLock()
        self._managed: dict[str, _Managed] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- membership ----------------------------------------------------

    def manage(
        self,
        process: ServerProcess,
        *,
        respawn: Callable[[_Managed], ServerProcess] | None = None,
        name: str | None = None,
    ) -> str:
        """Start watching ``process``; returns its supervision name.

        ``respawn`` overrides how a replacement is built (the default
        relaunches ``process.pinned_args()`` and waits for readiness).
        """
        entry_name = name or process.name
        with self._lock:
            if entry_name in self._managed:
                raise ValueError(
                    f"already supervising a process named {entry_name!r}"
                )
            self._managed[entry_name] = _Managed(
                name=entry_name, process=process, respawn=respawn
            )
        return entry_name

    def forget(self, name: str) -> ServerProcess | None:
        """Stop watching ``name`` (decommission); returns its process."""
        with self._lock:
            entry = self._managed.pop(name, None)
        return entry.process if entry else None

    def processes(self) -> dict[str, ServerProcess]:
        """Live view of every supervised process (for teardown)."""
        with self._lock:
            return {
                name: entry.process
                for name, entry in self._managed.items()
            }

    # -- the watch loop ------------------------------------------------

    def _default_respawn(self, entry: _Managed) -> ServerProcess:
        replacement = ServerProcess(
            entry.process.pinned_args(), name=entry.name
        )
        replacement.start(startup_timeout_s=self.startup_timeout_s)
        replacement.wait_ready(timeout_s=self.startup_timeout_s)
        return replacement

    def poll_once(self) -> list[str]:
        """One synchronous sweep; returns the names respawned this sweep.

        A freshly-detected crash schedules a respawn after the jittered
        backoff for that shard's consecutive-failure count; the respawn
        itself happens on a later sweep once the clock passes it.
        """
        with self._lock:
            entries = list(self._managed.values())
        respawned: list[str] = []
        for entry in entries:
            if entry.process.alive():
                continue
            now = self._clock()
            if entry.next_attempt_at == 0.0:
                # Crash just detected: schedule, don't respawn yet.
                delay = RESPAWN_BACKOFF.delay_for(entry.failures, self.rng)
                entry.failures += 1
                entry.next_attempt_at = now + delay
                _log.warning(
                    "shard %s exited (failure #%d); respawning in %.3fs",
                    entry.name, entry.failures, delay,
                )
                get_metrics().counter(
                    "repro.cluster.supervisor.crashes", shard=entry.name
                ).inc()
                continue
            if now < entry.next_attempt_at:
                continue
            build = entry.respawn or self._default_respawn
            try:
                replacement = build(entry)
            except Exception as error:  # noqa: BLE001 - keep supervising
                entry.last_error = str(error)
                delay = RESPAWN_BACKOFF.delay_for(entry.failures, self.rng)
                entry.failures += 1
                entry.next_attempt_at = self._clock() + delay
                _log.warning(
                    "respawn of shard %s failed (failure #%d, retry in "
                    "%.3fs): %s",
                    entry.name, entry.failures, delay, error,
                )
                get_metrics().counter(
                    "repro.cluster.supervisor.respawn_failures",
                    shard=entry.name,
                ).inc()
                continue
            with self._lock:
                if self._managed.get(entry.name) is not entry:
                    # Forgotten while respawning: roll the child back.
                    replacement.terminate()
                    continue
                entry.process = replacement
                entry.failures = 0
                entry.next_attempt_at = 0.0
                entry.last_error = None
                entry.respawns += 1
            respawned.append(entry.name)
            _log.info(
                "shard %s respawned (pid %s); heartbeats will re-admit "
                "it once it sustains %s",
                entry.name,
                replacement.process.pid if replacement.process else "?",
                "healthy probes",
            )
            get_metrics().counter(
                "repro.cluster.supervisor.respawns", shard=entry.name
            ).inc()
        return respawned

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self.poll_once()
            except Exception as error:  # noqa: BLE001 - keep watching
                _log.warning("supervisor sweep failed: %s", error)

    def start(self) -> "ShardSupervisor":
        """Watch on a daemon thread until :meth:`stop` (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="shard-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the watch thread (supervised children keep running)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-shard supervision state."""
        with self._lock:
            entries = sorted(self._managed.values(), key=lambda e: e.name)
            return [
                {
                    "name": entry.name,
                    "alive": entry.process.alive(),
                    "failures": entry.failures,
                    "respawns": entry.respawns,
                    "pending_respawn": entry.next_attempt_at > 0.0,
                    "last_error": entry.last_error,
                }
                for entry in entries
            ]
