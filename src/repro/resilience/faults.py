"""Deterministic fault injection at named points in the stack.

Robustness behavior is only trustworthy if it is *testable*: this
module compiles named fault points into the backends the search leans
on, so tests (and the chaos CI job) can inject errors, latency and
partial results deterministically and assert the retry and
degradation machinery does what the docs claim.

Fault points (see :data:`FAULT_POINTS`) are plain function calls placed
at the seams:

* ``sqlite.connect`` / ``sqlite.execute`` — the sqlite mirror backend,
* ``index.search`` — inverted-index probes (supports ``partial`` mode:
  the result list is truncated, simulating a flaky secondary index),
* ``registry.build`` — dataset construction in the service registry,
* ``workers.job`` — the worker pool, right before a job body runs,
* ``journal.append`` — the session journal's write path,
* ``cluster.shard.call`` — the coordinator's network hop to a shard.

When no injector is active, a fault point is one module-global read —
cheap enough for hot paths.  Activation is process-global and
re-entrant-safe via the context-manager protocol::

    plan = [FaultSpec("index.search", mode="latency", latency_s=0.05)]
    with FaultInjector(plan, seed=7):
        engine.search(("Avatar", "James Cameron"))

Probabilistic faults draw from a seeded :class:`random.Random`, so a
given (plan, seed) sequence is reproducible run to run.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.obs import get_logger, get_metrics

_log = get_logger(__name__)

#: The catalog of instrumented fault points.
FAULT_POINTS: frozenset[str] = frozenset({
    "sqlite.connect",
    "sqlite.execute",
    "index.search",
    "registry.build",
    "workers.job",
    "journal.append",
    "cluster.shard.call",
})

#: Supported fault modes.
MODES: tuple[str, ...] = ("error", "latency", "partial")


class InjectedFault(RuntimeError):
    """Default error raised by ``mode="error"`` specs (clearly marked)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass
class FaultSpec:
    """One configured fault at one named point.

    Parameters
    ----------
    point:
        The fault-point name (must be in :data:`FAULT_POINTS`).
    mode:
        ``"error"`` raises, ``"latency"`` sleeps, ``"partial"``
        truncates results at points that support it.
    probability:
        Chance each visit fires, in ``[0, 1]`` (seeded RNG).
    times:
        Fire at most this many times, then go dormant (``None`` =
        unlimited).  ``times=2`` with a retry policy of three attempts
        is the canonical "transient failure that recovery absorbs".
    error:
        Exception instance/factory for ``error`` mode; defaults to
        :class:`InjectedFault`.
    latency_s:
        Sleep duration for ``latency`` mode.
    keep_fraction:
        Fraction of items kept by ``partial`` mode (at least one item
        is dropped whenever the list is non-empty).
    """

    point: str
    mode: str = "error"
    probability: float = 1.0
    times: int | None = None
    error: Callable[[], BaseException] | None = None
    latency_s: float = 0.0
    keep_fraction: float = 0.5
    #: Times this spec actually fired (mutated by the injector).
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r} "
                f"(known: {', '.join(sorted(FAULT_POINTS))})"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.times is not None and self.times <= 0:
            raise ValueError("times must be positive (or None)")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be within [0, 1]")

    def make_error(self) -> BaseException:
        """The exception this spec raises in ``error`` mode."""
        if self.error is None:
            return InjectedFault(self.point)
        return self.error()


class FaultInjector:
    """Activates a fault plan process-wide for a scoped block.

    Thread-safe: the firing decision (probability draw, ``times``
    bookkeeping) runs under one lock, so concurrent worker threads see
    a consistent, reproducible fault sequence.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.specs = list(specs)
        self._by_point: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_point.setdefault(spec.point, []).append(spec)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        #: point -> times any spec fired there (tests assert on this).
        self.fired: dict[str, int] = {}

    # -- activation ----------------------------------------------------

    def activate(self) -> "FaultInjector":
        """Install this injector as the process-wide active one."""
        global _ACTIVE
        _ACTIVE = self
        _log.info(
            "fault injector active: %s",
            ", ".join(f"{s.point}/{s.mode}" for s in self.specs) or "(empty)",
        )
        return self

    def deactivate(self) -> None:
        """Uninstall (idempotent; only removes itself)."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "FaultInjector":
        return self.activate()

    def __exit__(self, *_exc: object) -> None:
        self.deactivate()

    # -- firing --------------------------------------------------------

    def _draw(self, point: str, modes: tuple[str, ...]) -> FaultSpec | None:
        """Pick the first armed spec at ``point`` that fires (locked)."""
        specs = self._by_point.get(point)
        if not specs:
            return None
        with self._lock:
            for spec in specs:
                if spec.mode not in modes:
                    continue
                if spec.times is not None and spec.fired >= spec.times:
                    continue
                if spec.probability < 1.0 and self._rng.random() > spec.probability:
                    continue
                spec.fired += 1
                self.fired[point] = self.fired.get(point, 0) + 1
                return spec
        return None

    def perturb(self, point: str) -> None:
        """Apply any armed error/latency fault at ``point``."""
        spec = self._draw(point, ("error", "latency"))
        if spec is None:
            return
        get_metrics().counter(
            "repro.faults.fired", point=point, mode=spec.mode
        ).inc()
        if spec.mode == "latency":
            _log.debug("injected %.3fs latency at %s", spec.latency_s, point)
            self._sleep(spec.latency_s)
            return
        _log.debug("injected error at %s", point)
        raise spec.make_error()

    def truncate(self, point: str, items: list) -> list:
        """Apply any armed ``partial`` fault at ``point`` to ``items``."""
        if not items:
            return items
        spec = self._draw(point, ("partial",))
        if spec is None:
            return items
        get_metrics().counter(
            "repro.faults.fired", point=point, mode="partial"
        ).inc()
        keep = min(len(items) - 1, int(len(items) * spec.keep_fraction))
        _log.debug("injected partial result at %s: %d -> %d items",
                   point, len(items), keep)
        return items[:keep]


#: The process-wide active injector (``None`` = no faults).
_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _ACTIVE


def fault_point(name: str) -> None:
    """Visit the named fault point (raise / sleep when a fault is armed).

    This is the call compiled into the instrumented seams; with no
    active injector it is one module-global read and a comparison.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.perturb(name)


def partial_point(name: str, items: list) -> list:
    """Visit a partial-result fault point; may return a truncated list."""
    injector = _ACTIVE
    if injector is not None:
        return injector.truncate(name, items)
    return items
