"""Latency-aware admission control (load shedding) for the service.

The bounded work queue already rejects when *full* (429); that is a
depth limit, blind to how slow jobs currently are.  Under a burst of
expensive searches a queue slot is no promise of timely service — a
request admitted at depth 30 with 1-second searches will wait ~30
seconds and die as a 504 *after* consuming its slot the whole time.

:class:`AdmissionController` sheds earlier and cheaper: it tracks an
EWMA of observed job latency, estimates the queue wait a new request
would face (``depth × ewma / workers``), and refuses with
:class:`~repro.exceptions.ServiceUnavailableError` (HTTP 503 +
``Retry-After``, ``reason="shed"``) when that estimate exceeds
``shed_factor ×`` the request deadline.  Failing fast keeps the queue
short enough that *accepted* requests still meet their deadlines —
the goodput-preserving half of overload protection.

Cold-start safety: the EWMA starts at zero, so an unloaded service
never sheds — behavior is identical to not having the controller until
real latency observations accumulate.
"""

from __future__ import annotations

import threading

from repro.exceptions import ServiceUnavailableError
from repro.service.retry_after import clamp_retry_after

#: EWMA smoothing: each new sample carries this weight.
ALPHA = 0.2


class AdmissionController:
    """Sheds requests whose estimated queue wait blows their deadline."""

    def __init__(
        self,
        *,
        workers: int,
        shed_factor: float,
        retry_after_s: float = 1.0,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.shed_factor = shed_factor
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._ewma_s = 0.0
        self.shed = 0

    @property
    def ewma_s(self) -> float:
        """Current latency estimate per job (seconds)."""
        with self._lock:
            return self._ewma_s

    def observe(self, seconds: float) -> None:
        """Feed one completed job's latency into the estimate."""
        if seconds < 0:
            return
        with self._lock:
            if self._ewma_s == 0.0:
                self._ewma_s = seconds
            else:
                self._ewma_s += ALPHA * (seconds - self._ewma_s)

    def estimated_wait_s(self, queue_depth: int) -> float:
        """Expected queue wait for a request admitted right now."""
        with self._lock:
            return queue_depth * self._ewma_s / self.workers

    def check(self, queue_depth: int, deadline_s: float) -> None:
        """Admit or shed one request (raises to shed).

        ``queue_depth`` is the work queue's current depth and
        ``deadline_s`` the request's end-to-end deadline.  A shed
        response hints ``Retry-After`` at the estimated drain time so
        well-behaved clients spread their retries past the burst.
        """
        if self.shed_factor <= 0 or deadline_s <= 0:
            return
        estimate = self.estimated_wait_s(queue_depth)
        if estimate <= self.shed_factor * deadline_s:
            return
        with self._lock:
            self.shed += 1
        raise ServiceUnavailableError(
            f"estimated queue wait {estimate:.2f}s exceeds "
            f"{self.shed_factor:g}x the {deadline_s:g}s deadline",
            retry_after_s=clamp_retry_after(estimate, self.retry_after_s),
            reason="shed",
        )

    def snapshot(self) -> dict[str, float]:
        """JSON-ready state for ``/healthz``."""
        with self._lock:
            return {
                "ewma_job_s": round(self._ewma_s, 6),
                "shed": self.shed,
                "shed_factor": self.shed_factor,
                "workers": self.workers,
            }
