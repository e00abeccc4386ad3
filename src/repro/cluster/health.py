"""Shard health: heartbeat probes and routed calls feed one failure
record per shard.

One background thread probes every shard's ``/healthz?ready=1`` on an
interval.  Routing results feed the same record, so a shard that dies
between heartbeats is marked down by its failed requests, not only by
the next probe round.  The rule is a consecutive-failure count:

* a shard goes **down** (unroutable) after ``failure_threshold``
  consecutive failed probes or calls;
* it is **re-admitted** after ``readmit_threshold`` *consecutive*
  successes.  The sustained-healthy streak is what keeps a flapping
  shard (alternating ok/fail heartbeats) out of the routing table
  instead of oscillating it in and out every probe round: a single
  lucky heartbeat is not re-admission, a streak is.

Membership is live: :meth:`add_shard` / :meth:`remove_shard` let the
coordinator's admin API grow and shrink the probed set at runtime.

Log hygiene: state *transitions* log once (marked down, back up); a
shard that stays down does not re-warn every probe round, and a probe
that keeps failing with the same odd error logs it once per downtime
episode.

Determinism hooks for tests: the probe function and
:meth:`HealthMonitor.probe_once` (one synchronous round, no thread).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ShardUnavailableError
from repro.obs import get_logger, get_metrics

_log = get_logger(__name__)


@dataclass
class _Shard:
    """One monitored shard: its client and failure record."""

    client: Any
    #: Consecutive failed probes/calls (reset by a success while up,
    #: and on re-admission).
    failures: int = 0
    #: Routing view: True while the shard must not receive traffic.
    down: bool = False
    #: Consecutive successes since the shard went down.
    healthy_streak: int = 0
    #: Whether the last probe or routed call succeeded (None: no
    #: result yet).
    last_ok: bool | None = None
    #: The odd-probe-error message already logged this episode.
    odd_error: str | None = None


class HealthMonitor:
    """Heartbeats + failure counts for a live (mutable) set of shards."""

    def __init__(
        self,
        clients: Mapping[str, Any],
        *,
        interval_s: float = 0.5,
        failure_threshold: int = 3,
        readmit_threshold: int = 2,
        probe: Callable[[Any], bool] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if readmit_threshold < 1:
            raise ValueError("readmit_threshold must be >= 1")
        self.interval_s = interval_s
        self.failure_threshold = failure_threshold
        self.readmit_threshold = readmit_threshold
        self._probe = probe or self._ready_probe
        # One lock guards membership and every shard record.
        self._lock = threading.RLock()
        self._shards: dict[str, _Shard] = {}
        for shard, client in clients.items():
            self.add_shard(shard, client)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @staticmethod
    def _ready_probe(client: Any) -> bool:
        """Default probe: the shard's readiness endpoint answers 200.

        A 503 (draining) counts as *not ready* — traffic should rotate
        away — and a transport failure obviously does.  Any other
        status still proves the process answers, which is what routing
        needs.
        """
        reply = client.call("GET", "/healthz", {"ready": "1"}, None)
        return reply.status == 200

    # -- membership ----------------------------------------------------

    def add_shard(self, shard: str, client: Any) -> None:
        """Start probing ``shard`` (idempotent for a known shard)."""
        with self._lock:
            self._shards.setdefault(shard, _Shard(client))

    def remove_shard(self, shard: str) -> Any:
        """Stop probing ``shard``; returns its client (for closing)."""
        with self._lock:
            record = self._shards.pop(shard, None)
        return record.client if record is not None else None

    def shards(self) -> tuple[str, ...]:
        """Every monitored shard, in admission order."""
        with self._lock:
            return tuple(self._shards)

    # -- probing -------------------------------------------------------

    def probe_once(self) -> dict[str, bool]:
        """One synchronous probe round; returns shard -> healthy."""
        with self._lock:
            targets = [(s, r.client) for s, r in self._shards.items()]
        results: dict[str, bool] = {}
        for shard, client in targets:
            try:
                healthy = bool(self._probe(client))
            except ShardUnavailableError:
                healthy = False
            except Exception as error:  # noqa: BLE001 - probe must not die
                self._log_odd_failure(shard, error)
                healthy = False
            results[shard] = healthy
            if healthy:
                self.record_success(shard)
            else:
                self.record_failure(shard)
        return results

    def _log_odd_failure(self, shard: str, error: Exception) -> None:
        """Warn once per (shard, error) downtime episode, not per round."""
        message = f"{type(error).__name__}: {error}"
        with self._lock:
            record = self._shards.get(shard)
            if record is None:
                return
            already, record.odd_error = record.odd_error, message
        if already != message:
            _log.warning(
                "health probe %s failed oddly: %s (suppressing repeats "
                "until the shard recovers)", shard, message,
            )
        else:
            _log.debug("health probe %s failed oddly again: %s",
                       shard, message)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.probe_once()

    def start(self) -> "HealthMonitor":
        """Run probe rounds on a daemon thread until :meth:`stop`."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="cluster-health", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the heartbeat thread and wait for it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- feed (heartbeats AND routing results) -------------------------

    def record_success(self, shard: str) -> None:
        """A probe or routed call succeeded.

        A shard that is down is only re-admitted to routing after
        ``readmit_threshold`` consecutive successes: the first healthy
        heartbeat after a crash is a trial, not a recovery.
        """
        with self._lock:
            record = self._shards.get(shard)
            if record is None:
                return
            record.last_ok = True
            if record.down:
                record.healthy_streak += 1
                if record.healthy_streak < self.readmit_threshold:
                    return
                record.down = False
                record.healthy_streak = 0
                _log.info(
                    "shard %s is back up (%d consecutive healthy "
                    "probe(s))", shard, self.readmit_threshold,
                )
            record.failures = 0
            record.odd_error = None

    def record_failure(self, shard: str) -> None:
        """A probe or routed call failed."""
        with self._lock:
            record = self._shards.get(shard)
            if record is None:
                return
            record.failures += 1
            record.healthy_streak = 0
            record.last_ok = False
            newly_down = (
                not record.down
                and record.failures >= self.failure_threshold
            )
            if newly_down:
                record.down = True
        if newly_down:
            _log.warning(
                "shard %s marked down (%d consecutive failures)",
                shard, self.failure_threshold,
            )
            get_metrics().counter(
                "repro.cluster.shard.down_transitions", shard=shard
            ).inc()

    # -- queries -------------------------------------------------------

    def is_up(self, shard: str) -> bool:
        """Routable: never went down, or re-admitted after a sustained-
        healthy streak.  Unknown shards are never routable."""
        with self._lock:
            record = self._shards.get(shard)
            return record is not None and not record.down

    def healthy(self, shard: str) -> bool:
        """Routable, and its last probe or routed call did not fail.

        Background work (replica shipping) waits for this: a shard that
        just timed out is often wedged, and it takes
        ``failure_threshold`` failures before routing stops using it.
        """
        with self._lock:
            record = self._shards.get(shard)
            return (
                record is not None
                and not record.down
                and record.last_ok is not False
            )

    def up_shards(self) -> tuple[str, ...]:
        """Every currently routable shard, in admission order."""
        with self._lock:
            return tuple(
                s for s, record in self._shards.items() if not record.down
            )

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-shard health for ``/healthz``."""
        with self._lock:
            return [
                {
                    "shard": shard,
                    "up": not record.down,
                    "last_probe_ok": record.last_ok,
                    "healthy_streak": record.healthy_streak,
                    "consecutive_failures": record.failures,
                }
                for shard, record in sorted(self._shards.items())
            ]
