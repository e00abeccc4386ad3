"""Wall / CPU / memory accounting for benchmark runs.

The paper table and figure benchmarks (``benchmarks/``, through
:func:`repro.bench.harness.run_tpw_search`) can account a search by
more than a stopwatch: a slowdown can show up as CPU time
(algorithmic), wall time (blocking), or peak memory (a level blowing
up).  :func:`measure` captures all three around a callable using only
the stdlib:

* wall seconds — ``time.perf_counter``;
* CPU seconds — ``time.process_time`` (user + system, all threads);
* Python allocation peak — ``tracemalloc`` (deterministic, per-block,
  so it is the noise-free memory signal);
* process peak RSS — ``resource.getrusage(RUSAGE_SELF).ru_maxrss``
  (high-water mark, monotone over the process lifetime — context only,
  since earlier work in the same process inflates it).

``tracemalloc`` slows allocation-heavy code down noticeably, so
:func:`measure` takes ``trace_memory=False`` for timing-only runs.
The repository benchmark with gated bounds is ``perfbench/run.py``
(see ``BENCHMARK.json``).
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

try:  # resource is POSIX-only; Windows falls back to zero RSS.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None  # type: ignore[assignment]


def _peak_rss_bytes() -> int:
    """The process's lifetime peak RSS in bytes (0 when unavailable)."""
    if _resource is None:
        return 0
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class ResourceUsage:
    """One measured run of a callable."""

    #: Wall-clock seconds.
    wall_s: float
    #: CPU seconds (user + system, all threads).
    cpu_s: float
    #: Peak Python-allocated bytes during the run (0 when memory
    #: tracing was off).
    py_peak_bytes: int
    #: Process peak RSS in bytes after the run (lifetime high-water
    #: mark — context only, 0 when the platform lacks ``resource``).
    rss_peak_bytes: int
    #: Whatever the measured callable returned.
    value: Any = None


def measure(
    fn: Callable[[], Any], *, trace_memory: bool = False
) -> ResourceUsage:
    """Run ``fn`` once and account its wall, CPU and memory usage.

    With ``trace_memory`` the run executes under :mod:`tracemalloc`
    (reset around the call, restored to its previous state after), so
    ``py_peak_bytes`` is the run's own allocation peak — at a
    significant slowdown; keep timing reps and memory reps separate.
    """
    was_tracing = tracemalloc.is_tracing()
    py_peak = 0
    if trace_memory:
        if was_tracing:
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    value = fn()
    wall_s = time.perf_counter() - wall_started
    cpu_s = time.process_time() - cpu_started
    if trace_memory:
        _size, py_peak = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
    return ResourceUsage(
        wall_s=wall_s,
        cpu_s=cpu_s,
        py_peak_bytes=py_peak,
        rss_peak_bytes=_peak_rss_bytes(),
        value=value,
    )

