"""``repro.obs`` — the unified tracing, metrics and logging substrate.

One import point for the three observability primitives:

* :mod:`repro.obs.tracer` — hierarchical span tracing of the TPW
  pipeline (``with get_tracer().span("tpw.weave"): ...``),
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms for the hot paths (index probes, weave widths, prune
  decisions),
* :mod:`repro.obs.log` — stdlib logging under the ``repro.*``
  namespace,

plus :mod:`repro.obs.export` for JSON-lines and human-readable output,
:mod:`repro.obs.explain` for per-search decision provenance (prune
reasons, weave fuse statistics, score decompositions) riding the span
tree, and the operations layer: :mod:`repro.obs.prometheus` (text
exposition), :mod:`repro.obs.profiler` (sampling profiler) and
:mod:`repro.obs.recorder` (request flight recorder).

Everything is **off by default** and zero-cost-when-disabled: the
shared handles are no-op implementations until :func:`enable` (or the
``REPRO_TRACE`` / ``REPRO_METRICS`` environment switches) swaps in live
ones.  Use :func:`scoped` for temporary enablement::

    from repro import obs

    with obs.scoped() as tracer:
        TPWEngine(db).search(("Avatar", "James Cameron"))
        print(obs.render_tree(tracer.finished))
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from collections.abc import Iterator

from repro.obs.explain import (
    NULL_EXPLAIN,
    ExplainRecorder,
    NullExplainRecorder,
    SearchExplanation,
    find_searches,
)
from repro.obs.export import (
    parse_jsonl,
    records_to_spans,
    render_metrics,
    render_tree,
    span_records,
    to_jsonl,
    write_jsonl,
)
from repro.obs.log import get_logger, setup_logging
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NullMetrics,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_enabled,
    set_metrics,
)
from repro.obs.metrics import histogram_quantile
from repro.obs.profiler import SamplingProfiler
from repro.obs.prometheus import (
    ExpositionError,
    parse_exposition,
    render_exposition,
)
from repro.obs.recorder import FlightRecorder, RequestRecord
from repro.obs.tracer import (
    NullTracer,
    Span,
    Stopwatch,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    traced,
    tracing_enabled,
)

__all__ = [
    "Span",
    "Stopwatch",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "NullMetrics",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "traced",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "ExplainRecorder",
    "NullExplainRecorder",
    "NULL_EXPLAIN",
    "SearchExplanation",
    "find_searches",
    "enable",
    "disable",
    "scoped",
    "get_logger",
    "setup_logging",
    "to_jsonl",
    "write_jsonl",
    "parse_jsonl",
    "span_records",
    "records_to_spans",
    "render_tree",
    "render_metrics",
    "histogram_quantile",
    "render_exposition",
    "parse_exposition",
    "ExpositionError",
    "SamplingProfiler",
    "FlightRecorder",
    "RequestRecord",
]


def enable(*, trace: bool = True, metrics: bool = True) -> None:
    """Turn on the selected observability layers globally."""
    if trace:
        enable_tracing()
    if metrics:
        enable_metrics()


def disable() -> None:
    """Turn tracing and metrics back off globally."""
    disable_tracing()
    disable_metrics()


@contextmanager
def scoped(*, trace: bool = True, metrics: bool = True) -> Iterator[Tracer]:
    """Temporarily swap in live tracer/metrics handles, restoring after.

    Yields the tracer in effect inside the block (a fresh live one when
    ``trace`` is requested and tracing was off, the existing handle
    otherwise), so callers can read ``tracer.finished`` on exit.
    """
    from repro.obs import metrics as _metrics_mod
    from repro.obs import tracer as _tracer_mod

    previous_tracer = _tracer_mod.get_tracer()
    previous_metrics = _metrics_mod.get_metrics()
    active = previous_tracer
    if trace and not previous_tracer.enabled:
        active = set_tracer(Tracer())
    if metrics and not previous_metrics.enabled:
        set_metrics(MetricsRegistry())
    try:
        yield active  # type: ignore[misc]
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


def _truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


# Environment switches: REPRO_TRACE / REPRO_METRICS enable the layers at
# import time; REPRO_LOG_LEVEL additionally attaches a stderr handler.
if _truthy(os.environ.get("REPRO_TRACE")):
    enable_tracing()
if _truthy(os.environ.get("REPRO_METRICS")):
    enable_metrics()
if os.environ.get("REPRO_LOG_LEVEL"):
    setup_logging()
