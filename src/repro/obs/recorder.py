"""Flight recorder: a bounded ring of recent request span-trees.

When something goes wrong in production the trace you want is the one
you didn't think to collect.  The recorder keeps the last N request
traces in memory — and *pins* the interesting ones (slow, degraded,
errored) in a separate ring so a burst of healthy traffic can't evict
the request you're hunting.  ``GET /debug/requests`` lists what's on
board; ``GET /debug/requests/{id}`` returns one request's full span
records (the :func:`repro.obs.export.span_records` shape, ready for
``records_to_spans`` / ``render_tree`` / explain).

Records hold live :class:`~repro.obs.tracer.Span` objects and
serialize on *read*, not on record — recording is a deque append under
a lock, cheap enough for every request.  Spans are finished by the
time they're recorded, so reading them later races nothing.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from threading import Lock
from typing import Any

from repro.obs.export import span_records
from repro.obs.tracer import Span


class RequestRecord:
    """One recorded request: identity, verdicts, and its span tree."""

    __slots__ = (
        "id", "route", "status", "duration_s", "epoch_s",
        "interesting", "reasons", "spans",
    )

    def __init__(
        self,
        record_id: str,
        *,
        route: str,
        status: int,
        duration_s: float,
        epoch_s: float,
        interesting: bool,
        reasons: tuple[str, ...],
        spans: tuple[Span, ...],
    ) -> None:
        self.id = record_id
        self.route = route
        self.status = status
        self.duration_s = duration_s
        self.epoch_s = epoch_s
        self.interesting = interesting
        self.reasons = reasons
        self.spans = spans

    def summary(self) -> dict[str, Any]:
        """The listing row: everything but the span tree."""
        return {
            "id": self.id,
            "route": self.route,
            "status": self.status,
            "duration_s": self.duration_s,
            "epoch_s": self.epoch_s,
            "interesting": self.interesting,
            "reasons": list(self.reasons),
            "span_count": sum(1 for root in self.spans for _ in root.walk()),
        }

    def detail(self) -> dict[str, Any]:
        """The full record: summary plus serialized span records."""
        out = self.summary()
        out["spans"] = list(span_records(self.spans))
        return out


class FlightRecorder:
    """Two rings: everything recent, plus pinned interesting requests."""

    def __init__(
        self,
        capacity: int = 128,
        *,
        interesting_capacity: int | None = None,
        slow_s: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.capacity = capacity
        self.slow_s = slow_s
        self._recent: deque[RequestRecord] = deque(maxlen=capacity)
        self._interesting: deque[RequestRecord] = deque(
            maxlen=interesting_capacity or capacity
        )
        self._by_id: dict[str, RequestRecord] = {}
        self._lock = Lock()
        self._counter = itertools.count(1)
        self._recorded = 0
        self._dropped = 0

    def next_id(self) -> str:
        """A fresh request id (monotonic within the process)."""
        return f"req-{next(self._counter):06d}"

    def record(
        self,
        *,
        route: str,
        status: int,
        duration_s: float,
        spans: tuple[Span, ...] | list[Span],
        request_id: str | None = None,
        reasons: tuple[str, ...] | list[str] = (),
        epoch_s: float | None = None,
    ) -> RequestRecord:
        """File one finished request; returns the stored record.

        ``reasons`` carries caller-side verdicts ("degraded"); the
        recorder adds its own "slow" (duration over ``slow_s``) and
        "error" (status >= 500 or an errored span) verdicts.  Any reason
        marks the record interesting and pins it in the interesting ring.
        """
        verdicts = list(reasons)
        if duration_s > self.slow_s:
            verdicts.append("slow")
        if status >= 500:
            verdicts.append("error")
        elif any(
            span.status == "error"
            for root in spans for span in root.walk()
        ):
            verdicts.append("span_error")
        record = RequestRecord(
            request_id or self.next_id(),
            route=route,
            status=status,
            duration_s=duration_s,
            epoch_s=epoch_s if epoch_s is not None else time.time(),
            interesting=bool(verdicts),
            reasons=tuple(verdicts),
            spans=tuple(spans),
        )
        with self._lock:
            self._recorded += 1
            evicted: list[RequestRecord] = []
            if len(self._recent) == self._recent.maxlen:
                evicted.append(self._recent[0])
            self._recent.append(record)
            if record.interesting:
                if len(self._interesting) == self._interesting.maxlen:
                    evicted.append(self._interesting[0])
                self._interesting.append(record)
            self._by_id[record.id] = record
            for old in evicted:
                # Only forget an id once it's out of *both* rings.
                if old not in self._recent and old not in self._interesting:
                    self._by_id.pop(old.id, None)
                    self._dropped += 1
        return record

    def get(self, record_id: str) -> RequestRecord | None:
        """The record for ``record_id``, or None if it aged out."""
        with self._lock:
            return self._by_id.get(record_id)

    def list(
        self, *, interesting_only: bool = False, limit: int = 50,
    ) -> list[dict[str, Any]]:
        """Most-recent-first listing rows (summaries, no span trees)."""
        with self._lock:
            source = self._interesting if interesting_only else self._recent
            records = list(source)[-limit:]
        return [record.summary() for record in reversed(records)]

    def stats(self) -> dict[str, Any]:
        """Occupancy and churn counters for /healthz and /metrics."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "recent": len(self._recent),
                "interesting": len(self._interesting),
                "recorded": self._recorded,
                "dropped": self._dropped,
            }
