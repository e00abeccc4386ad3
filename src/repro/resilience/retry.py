"""Retry with jittered exponential backoff.

Transient backend failures (a busy sqlite connection, a dataset build
hiccup, an injected fault in a chaos run) should cost a retry, not a
request.  :func:`retry_call` runs an operation under a
:class:`RetryPolicy` and re-raises the last error once the attempts run
out; the shard supervisor reuses the same policy's
:meth:`~RetryPolicy.delay_for` for its respawn backoff.

Retries emit :mod:`repro.obs` metrics (``repro.retry.attempts``,
``repro.retry.retries``, ``repro.retry.giveups``) and are deterministic
under test: the RNG and sleep are injectable.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.obs import get_logger, get_metrics

_log = get_logger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for :func:`retry_call`.

    Attempt ``n`` (0-based) sleeps ``base_delay_s * multiplier**n``
    capped at ``max_delay_s``, with up to ``jitter`` of the delay
    added or removed uniformly at random — the classic decorrelation
    that keeps a thundering herd from re-colliding.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The (jittered) sleep before retry number ``attempt + 1``."""
        delay = min(
            self.max_delay_s, self.base_delay_s * (self.multiplier ** attempt)
        )
        if self.jitter:
            spread = delay * self.jitter
            delay = max(0.0, delay + rng.uniform(-spread, spread))
        return delay


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    name: str = "operation",
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> T:
    """Run ``fn`` with retries; re-raise the last error when they run out.

    ``retry_on`` restricts which exceptions are considered transient —
    anything else propagates immediately.
    """
    policy = policy or RetryPolicy()
    rng = rng or random.Random()
    metrics = get_metrics()
    last_error: BaseException | None = None
    for attempt in range(policy.max_attempts):
        metrics.counter("repro.retry.attempts", op=name).inc()
        try:
            return fn()
        except retry_on as error:
            last_error = error
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.delay_for(attempt, rng)
            metrics.counter("repro.retry.retries", op=name).inc()
            _log.warning(
                "%s failed (attempt %d/%d): %s — retrying in %.3fs",
                name, attempt + 1, policy.max_attempts, error, delay,
            )
            if delay > 0:
                sleep(delay)
    metrics.counter("repro.retry.giveups", op=name).inc()
    assert last_error is not None
    raise last_error
