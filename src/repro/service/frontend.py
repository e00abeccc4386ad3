"""The request front end ``mweaver serve``/``shard`` and ``mweaver
cluster`` share.

:class:`FrontEnd` is the base of :class:`~repro.service.app.ServiceApp`
and :class:`~repro.cluster.coordinator.CoordinatorApp`.  It owns what
the two do alike around their routing: the in-flight count and the
drain lifecycle; the request frame (span, drain refusal, error mapping,
the one 500 boundary and the RED metrics); and the shared halves of
``/healthz`` and ``/metrics``.  The only difference between the two,
the span and metric prefix, is a constructor argument.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.exceptions import ReproError, ServiceUnavailableError
from repro.obs import get_logger, get_metrics, get_tracer
from repro.obs.prometheus import render_exposition
from repro.resilience import SessionJournal
from repro.service.retry_after import retry_after_header
from repro.service.validation import (
    BadRequest,
    Response,
    error_response,
    route_template,
)

_log = get_logger(__name__)

#: Routes that answer while draining: health, metrics and the /debug
#: surface are what an operator reads during a drain.
_DRAIN_EXEMPT = frozenset({
    "GET /healthz", "GET /metrics", "GET /debug/profile",
    "GET /debug/requests", "GET /debug/requests/{id}",
})

_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class FrontEnd:
    """One request front end; subclasses supply the routes.

    A subclass sets ``config`` (with ``host``, ``port``,
    ``retry_after_s`` and ``drain_timeout_s``), may set ``journal`` and
    ``recovered_sessions``, and implements ``close()`` and four hooks:
    ``_dispatch(method, parts, query, body)`` routes an admitted
    request (raising is fine; the frame maps it), ``_health()`` returns
    the ``/healthz`` body and the app's own readiness blockers,
    ``_metrics_summary()`` the app's keys of the JSON ``/metrics`` body,
    and ``_refresh_gauges()`` folds live state into gauges before a
    scrape.
    """

    config: Any
    journal: SessionJournal | None = None
    recovered_sessions = 0

    def __init__(self, prefix: str) -> None:
        self._span_name = f"{prefix}.request"
        self._metric = f"repro.{prefix}"
        # In-flight requests and the draining flag share one condition
        # so a drain can wait for the count to reach 0.
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._draining = False
        self.drain_report: dict[str, Any] | None = None

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- drain -----------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests keep running.

        New requests outside health, metrics and ``/debug`` answer 503
        (``reason="drain"``) from this point on.  Idempotent.
        """
        with self._inflight_cond:
            if self._draining:
                return
            self._draining = True
        get_metrics().gauge(f"{self._metric}.draining").set(1)
        _log.info("drain started: no longer admitting work")

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no request is in flight (True) or timeout (False)."""
        deadline = time.monotonic() + timeout_s
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(timeout=min(0.25, remaining))
        return True

    def drain(self, timeout_s: float | None = None) -> bool:
        """The graceful-shutdown path: drain, then close.

        Stops admitting, waits up to ``timeout_s`` (default: the
        configured ``drain_timeout_s``) for in-flight requests, then
        closes the app, which flushes and closes its journal.  Records
        ``drain_report`` and returns ``True`` when every in-flight
        request finished in time.
        """
        timeout = (
            timeout_s if timeout_s is not None
            else self.config.drain_timeout_s
        )
        started = time.monotonic()
        self.begin_drain()
        clean = self.wait_idle(timeout)
        self.close()
        elapsed = time.monotonic() - started
        self.drain_report = {"clean": clean, "seconds": round(elapsed, 3)}
        get_metrics().gauge(f"{self._metric}.drain.seconds").set(elapsed)
        _log.info(
            "drain finished in %.3fs (%s)",
            elapsed, "clean" if clean else "timed out",
        )
        return clean

    # -- the request frame -----------------------------------------------

    def _frame(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None,
        body: dict[str, Any] | None,
        **attributes: Any,
    ) -> tuple[Response, str, float, Any]:
        """Serve one request; never raises — failures become statuses.

        Returns ``(response, route, elapsed seconds, request span)``;
        ``attributes`` go on the span.
        """
        parts = tuple(part for part in path.split("/") if part)
        route = route_template(method, parts)
        with get_tracer().span(
            self._span_name, method=method, route=route, **attributes
        ) as span:
            started = time.perf_counter()
            with self._inflight_cond:
                self._inflight += 1
            try:
                if self._draining and route not in _DRAIN_EXEMPT:
                    raise ServiceUnavailableError(
                        "server is draining",
                        retry_after_s=self.config.retry_after_s,
                        reason="drain",
                    )
                response = self._dispatch(method, parts, query or {}, body)
            except (BadRequest, ReproError) as error:
                response = error_response(error)
            except Exception as error:  # noqa: BLE001 - the 500 boundary
                _log.exception("unhandled error on %s %s", method, path)
                response = 500, {"error": f"{type(error).__name__}: {error}"}, {}
            finally:
                with self._inflight_cond:
                    self._inflight -= 1
                    self._inflight_cond.notify_all()
            status = response[0]
            span.set("status", status)
            elapsed = time.perf_counter() - started
        # RED metrics: rate+errors via the labelled counter, duration
        # via a per-route histogram alongside the global one.
        metrics = get_metrics()
        metrics.counter(
            f"{self._metric}.requests", route=route, status=status
        ).inc()
        seconds = f"{self._metric}.request.seconds"
        metrics.histogram(seconds).observe(elapsed)
        metrics.histogram(seconds, route=route).observe(elapsed)
        return response, route, elapsed, span

    # -- shared endpoints ------------------------------------------------

    def healthz(self, query: dict[str, str] | None = None) -> Response:
        """``GET /healthz`` — liveness; ``?ready=1`` — readiness.

        Plain ``/healthz`` is a *liveness* probe: always 200 while the
        process can answer, even with ``status: "degraded"`` (killing a
        process that still serves existing sessions makes things
        worse).  ``/healthz?ready=1`` is the *readiness* probe load
        balancers should poll: 503 with ``Retry-After`` and
        ``ready_blockers`` while the app drains or one of its own
        blockers holds, so traffic rotates away without dropping the
        instance.
        """
        body, blockers = self._health()
        body["journal"] = (
            {
                "path": str(self.journal.path),
                "appended": self.journal.appended,
                "recovered_sessions": self.recovered_sessions,
            }
            if self.journal is not None
            else None
        )
        body["draining"] = self._draining
        if (query or {}).get("ready", "") in ("1", "true", "yes"):
            if self._draining:
                blockers.insert(0, "draining")
            body["ready"] = not blockers
            if blockers:
                body["ready_blockers"] = blockers
                retry = retry_after_header(self.config.retry_after_s)
                return 503, body, {"Retry-After": retry}
        return 200, body, {}

    def metrics(self, query: dict[str, str] | None = None) -> Response:
        """``GET /metrics`` — the app's summary plus the obs registry.

        ``?format=prometheus`` serves the registry as Prometheus text
        exposition instead (``text/plain; version=0.0.4``).  Both forms
        fold the app's live operational state into gauges first, so a
        single scrape carries it.
        """
        self._refresh_gauges()
        registry = get_metrics()
        if (query or {}).get("format") == "prometheus":
            return 200, render_exposition(registry), {
                "Content-Type": _PROMETHEUS_TYPE
            }
        return 200, {
            **self._metrics_summary(), "metrics": registry.snapshot()
        }, {}
