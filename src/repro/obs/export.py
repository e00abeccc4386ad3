"""Exporters: JSON-lines for machines, span trees and tables for humans.

The JSON-lines format is one object per line, each tagged with ``kind``:

``{"kind": "span", ...}``
    One span.  Fields: ``trace`` (root index within the file), ``id``
    (pre-order index within the trace), ``parent`` (parent ``id`` or
    ``null`` for roots), ``name``, ``epoch_s`` (wall-clock epoch
    seconds at which the span opened — the field that lets traces
    recorded by *different processes* be merged and ordered offline;
    ``start`` is kept as a legacy alias), ``duration_s``, ``cpu_s``,
    ``status`` (``ok``/``error``), ``error`` (string or ``null``) and
    ``attrs`` (the span's attributes, which must be JSON-serializable —
    instrumented call sites stringify dict keys for this reason).

``{"kind": "metrics", ...}``
    At most one per file: the registry snapshot (``counters`` /
    ``gauges`` / ``histograms``), as returned by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.

:func:`parse_jsonl` round-trips the span records back into
:class:`~repro.obs.tracer.Span` trees, so traces can be inspected with
the same ``walk``/``find`` API whether they are live or reloaded.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from repro.obs.tracer import Span


# ----------------------------------------------------------------------
# JSON-lines
# ----------------------------------------------------------------------

def span_records(spans: Sequence[Span]) -> Iterable[dict[str, Any]]:
    """Flatten root span trees into ``kind=span`` records, pre-order."""
    for trace_index, root in enumerate(spans):
        counter = 0
        stack: list[tuple[Span, int | None]] = [(root, None)]
        while stack:
            span, parent_id = stack.pop()
            span_id = counter
            counter += 1
            yield {
                "kind": "span",
                "trace": trace_index,
                "id": span_id,
                "parent": parent_id,
                "name": span.name,
                "epoch_s": span.start_epoch,
                "start": span.start_epoch,
                "duration_s": span.duration,
                "cpu_s": span.cpu_duration,
                "status": span.status,
                "error": span.error,
                "attrs": span.attributes,
            }
            # Reversed so the stack pops children left to right,
            # giving pre-order ids.
            for child in reversed(span.children):
                stack.append((child, span_id))


def to_jsonl(
    spans: Sequence[Span],
    metrics_snapshot: dict[str, Any] | None = None,
) -> str:
    """Serialize spans (and optionally a metrics snapshot) to JSON-lines."""
    lines = [json.dumps(record, default=str) for record in span_records(spans)]
    if metrics_snapshot is not None:
        lines.append(json.dumps({"kind": "metrics", **metrics_snapshot}))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(
    path: str | Path,
    spans: Sequence[Span],
    metrics_snapshot: dict[str, Any] | None = None,
) -> Path:
    """Write :func:`to_jsonl` output to ``path`` (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_jsonl(spans, metrics_snapshot), encoding="utf-8")
    return target


def _restore_one(record: dict[str, Any]) -> Span:
    return Span.restored(
        record["name"],
        attributes=record.get("attrs") or {},
        start_epoch=record.get("epoch_s", record.get("start", 0.0)),
        duration=record.get("duration_s", 0.0),
        cpu_duration=record.get("cpu_s", 0.0),
        status=record.get("status", "ok"),
        error=record.get("error"),
    )


def records_to_spans(records: Iterable[dict[str, Any]]) -> list[Span]:
    """Rebuild root :class:`Span` trees from ``kind=span`` record dicts.

    The exact inverse of :func:`span_records`, minus the JSON framing:
    ``/debug/requests/{id}`` ships a request's spans as these records,
    and this rebuilds the trees on the reading side.  Raises
    ``ValueError`` on a dangling parent id.
    """
    roots: list[Span] = []
    by_id: dict[tuple[int, int], Span] = {}
    for index, record in enumerate(records):
        span = _restore_one(record)
        by_id[(record.get("trace", 0), record["id"])] = span
        parent_id = record.get("parent")
        if parent_id is None:
            roots.append(span)
        else:
            parent = by_id.get((record.get("trace", 0), parent_id))
            if parent is None:
                raise ValueError(
                    f"record {index}: parent {parent_id} not seen yet"
                )
            parent.children.append(span)
    return roots


def parse_jsonl(text: str) -> tuple[list[Span], dict[str, Any] | None]:
    """Rebuild ``(root spans, metrics snapshot or None)`` from JSON-lines.

    Raises ``ValueError`` on malformed lines or dangling parent ids.
    """
    span_records_seen: list[dict[str, Any]] = []
    metrics_snapshot: dict[str, Any] | None = None
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {line_number}: not JSON ({error})") from error
        kind = record.get("kind")
        if kind == "metrics":
            metrics_snapshot = {
                key: value for key, value in record.items() if key != "kind"
            }
            continue
        if kind != "span":
            raise ValueError(f"line {line_number}: unknown kind {kind!r}")
        span_records_seen.append(record)
    roots = records_to_spans(span_records_seen)
    return roots, metrics_snapshot


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------

def _format_attrs(attributes: dict[str, Any], limit: int = 6) -> str:
    if not attributes:
        return ""
    parts = []
    for key, value in list(attributes.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    if len(attributes) > limit:
        parts.append("…")
    return "  " + " ".join(parts)


def _render_span(
    span: Span,
    prefix: str,
    is_last: bool,
    lines: list[str],
    *,
    epoch_base: float | None = None,
) -> None:
    connector = "" if not prefix and is_last is None else ("└─ " if is_last else "├─ ")
    timing = f"[{span.duration * 1000:.1f}ms"
    if span.cpu_duration:
        timing += f" cpu {span.cpu_duration * 1000:.1f}ms"
    timing += "]"
    if epoch_base is not None and span.start_epoch:
        # Wall-clock offset from the earliest root: the key that keeps
        # spans stitched from different processes readable in order.
        timing += f" @+{(span.start_epoch - epoch_base) * 1000:.1f}ms"
    marker = " !" if span.status == "error" else ""
    lines.append(
        f"{prefix}{connector}{span.name} {timing}{marker}"
        f"{_format_attrs(span.attributes)}"
    )
    child_prefix = prefix + ("" if is_last is None else ("   " if is_last else "│  "))
    for index, child in enumerate(span.children):
        _render_span(
            child, child_prefix, index == len(span.children) - 1, lines,
            epoch_base=epoch_base,
        )


def render_tree(spans: Sequence[Span], *, epochs: bool = False) -> str:
    """Render root span trees as an indented tree with durations.

    ``epochs=True`` additionally prints each span's wall-clock offset
    (``@+12.3ms``) from the earliest root — useful for traces merged
    from several processes, whose monotonic timings do not correlate.
    """
    if not spans:
        return "(no spans recorded)"
    epoch_base: float | None = None
    if epochs:
        starts = [span.start_epoch for span in spans if span.start_epoch]
        epoch_base = min(starts) if starts else None
    lines: list[str] = []
    for root in spans:
        _render_span(root, "", None, lines, epoch_base=epoch_base)  # type: ignore[arg-type]
    return "\n".join(lines)


def render_metrics(snapshot: dict[str, Any]) -> str:
    """Render a metrics snapshot as aligned name/value lines."""
    rows: list[tuple[str, str]] = []
    for key, value in snapshot.get("counters", {}).items():
        rows.append((key, str(value)))
    for key, value in snapshot.get("gauges", {}).items():
        rows.append((key, str(value)))
    for key, data in snapshot.get("histograms", {}).items():
        count = data.get("count", 0)
        total = data.get("sum", 0.0)
        mean = total / count if count else 0.0
        rows.append((key, f"count={count} sum={total:.6g} mean={mean:.6g}"))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(name) for name, _value in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
