"""Shard health: heartbeat probes feeding per-shard circuit breakers.

One background thread probes every shard's ``/healthz?ready=1`` on an
interval and feeds the result straight into that shard's
:class:`~repro.resilience.CircuitBreaker` — the heartbeat *is* the
breaker's probe, so the monitor calls ``record_success`` /
``record_failure`` directly rather than routing through
``before_call``.  Routing results feed the same breakers, so a shard
that dies between heartbeats is marked down by the first failed
request, not only by the next probe round.

A shard is **up** (routable) while it has never tripped its breaker,
or — after tripping — once it has answered ``readmit_threshold``
*consecutive* healthy probes past the breaker's reset window.  The
sustained-healthy window is what keeps a flapping shard (alternating
ok/fail heartbeats) out of the routing table instead of oscillating it
in and out every probe round: a single lucky heartbeat is not
re-admission, a streak is.

Membership is live: :meth:`add_shard` / :meth:`remove_shard` let the
coordinator's admin API grow and shrink the probed set at runtime.

Log hygiene: state *transitions* log once (marked down, back up); a
shard that stays down does not re-warn every probe round, and a probe
that keeps failing with the same odd error logs it once per downtime
episode.

Determinism hooks for tests: the probe function, the clock, and
:meth:`HealthMonitor.probe_once` (one synchronous round, no thread).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from typing import Any

from repro.exceptions import ShardUnavailableError
from repro.obs import get_logger, get_metrics
from repro.resilience.retry import CircuitBreaker

_log = get_logger(__name__)


class HealthMonitor:
    """Heartbeats + breakers for a live (mutable) set of shards."""

    def __init__(
        self,
        clients: Mapping[str, Any],
        *,
        interval_s: float = 0.5,
        failure_threshold: int = 3,
        reset_timeout_s: float = 2.0,
        readmit_threshold: int = 2,
        probe: Callable[[Any], bool] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if readmit_threshold < 1:
            raise ValueError("readmit_threshold must be >= 1")
        self.interval_s = interval_s
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.readmit_threshold = readmit_threshold
        self._probe = probe or self._ready_probe
        self._clock = clock
        # One lock guards membership and the per-shard state tables;
        # breaker transitions have their own internal lock.
        self._lock = threading.RLock()
        self.clients: dict[str, Any] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        self._last_probe: dict[str, bool | None] = {}
        #: Routing view: True while the shard must not receive traffic.
        self._down: dict[str, bool] = {}
        #: Consecutive healthy probes since the shard went down.
        self._healthy_streak: dict[str, int] = {}
        #: The odd-probe-error message already logged this episode.
        self._odd_logged: dict[str, str | None] = {}
        for shard, client in clients.items():
            self.add_shard(shard, client)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @staticmethod
    def _ready_probe(client: Any) -> bool:
        """Default probe: the shard's readiness endpoint answers 200.

        A 503 (draining, open dataset breaker) counts as *not ready* —
        traffic should rotate away — and a transport failure obviously
        does.  Any other status still proves the process answers, which
        is what routing needs.
        """
        reply = client.call("GET", "/healthz", {"ready": "1"}, None)
        return reply.status == 200

    # -- membership ----------------------------------------------------

    def add_shard(self, shard: str, client: Any) -> None:
        """Start probing ``shard`` (idempotent for a known shard)."""
        with self._lock:
            if shard in self.clients:
                return
            self.clients[shard] = client
            self.breakers[shard] = CircuitBreaker(
                f"cluster.shard:{shard}",
                failure_threshold=self.failure_threshold,
                reset_timeout_s=self.reset_timeout_s,
                clock=self._clock,
            )
            self._last_probe[shard] = None
            self._down[shard] = False
            self._healthy_streak[shard] = 0
            self._odd_logged[shard] = None
        self._publish(shard)

    def remove_shard(self, shard: str) -> Any:
        """Stop probing ``shard``; returns its client (for closing)."""
        with self._lock:
            client = self.clients.pop(shard, None)
            self.breakers.pop(shard, None)
            self._last_probe.pop(shard, None)
            self._down.pop(shard, None)
            self._healthy_streak.pop(shard, None)
            self._odd_logged.pop(shard, None)
        return client

    def shards(self) -> tuple[str, ...]:
        """Every monitored shard, in admission order."""
        with self._lock:
            return tuple(self.clients)

    # -- probing -------------------------------------------------------

    def probe_once(self) -> dict[str, bool]:
        """One synchronous probe round; returns shard -> healthy."""
        with self._lock:
            targets = list(self.clients.items())
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
            if shard not in self.clients:
                return
            already = self._odd_logged.get(shard)
            self._odd_logged[shard] = message
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

    # -- breaker feed (heartbeats AND routing results) -----------------

    def record_success(self, shard: str) -> None:
        """A probe or routed call succeeded: feed the breaker.

        A shard that tripped its breaker is only re-admitted to routing
        after ``readmit_threshold`` consecutive successes — the first
        healthy heartbeat after a crash is a half-open trial, not a
        recovery.
        """
        with self._lock:
            if shard not in self.clients:
                return
            breaker = self.breakers[shard]
            if not self._down[shard]:
                breaker.record_success()
            else:
                self._healthy_streak[shard] += 1
                if self._healthy_streak[shard] < self.readmit_threshold:
                    self._last_probe[shard] = True
                    return
                breaker.record_success()
                self._down[shard] = False
                self._healthy_streak[shard] = 0
                _log.info(
                    "shard %s is back up (%d consecutive healthy "
                    "probe(s))", shard, self.readmit_threshold,
                )
            self._last_probe[shard] = True
            self._odd_logged[shard] = None
        self._publish(shard)

    def record_failure(self, shard: str) -> None:
        """A probe or routed call failed: feed the breaker."""
        with self._lock:
            if shard not in self.clients:
                return
            breaker = self.breakers[shard]
            breaker.record_failure()
            self._healthy_streak[shard] = 0
            self._last_probe[shard] = False
            newly_down = (
                breaker.snapshot()["state"] == CircuitBreaker.OPEN
                and not self._down[shard]
            )
            if newly_down:
                self._down[shard] = True
        if newly_down:
            _log.warning("shard %s marked down (breaker open)", shard)
            get_metrics().counter(
                "repro.cluster.shard.down_transitions", shard=shard
            ).inc()
        self._publish(shard)

    def _publish(self, shard: str) -> None:
        get_metrics().gauge(
            "repro.cluster.shard.up", shard=shard
        ).set(1 if self.is_up(shard) else 0)

    # -- queries -------------------------------------------------------

    def is_up(self, shard: str) -> bool:
        """Routable: never tripped, or re-admitted after a sustained-
        healthy probe streak.  Unknown shards are never routable."""
        with self._lock:
            return shard in self.clients and not self._down[shard]

    def healthy(self, shard: str) -> bool:
        """Routable, and its last probe or routed call did not fail.

        Background work (replica shipping) waits for this: a shard that
        just timed out is often wedged, and its breaker needs more
        failures before routing stops using it.
        """
        with self._lock:
            return (
                shard in self.clients
                and not self._down[shard]
                and self._last_probe[shard] is not False
            )

    def up_shards(self) -> tuple[str, ...]:
        """Every currently routable shard, in admission order."""
        with self._lock:
            return tuple(s for s in self.clients if not self._down[s])

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-shard health for ``/healthz``."""
        with self._lock:
            shards = sorted(self.clients)
            return [
                {
                    "shard": shard,
                    "up": not self._down[shard],
                    "last_probe_ok": self._last_probe[shard],
                    "healthy_streak": self._healthy_streak[shard],
                    "breaker": self.breakers[shard].snapshot(),
                }
                for shard in shards
            ]
