"""The flight recorder: rings, pinning, verdicts, serialization."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.recorder import FlightRecorder


def make_span_tree():
    """One finished request-shaped span tree via a scoped tracer."""
    with obs.scoped() as tracer:
        with tracer.span("service.request", route="GET /x") as root:
            with tracer.span("session.search"):
                pass
    return root


def make_error_span_tree():
    with obs.scoped() as tracer:
        try:
            with tracer.span("service.request"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
    return tracer.finished[0]


class TestRecordingBasics:
    def test_record_get_and_list(self):
        recorder = FlightRecorder(capacity=4, slow_s=1.0)
        root = make_span_tree()
        record = recorder.record(
            route="GET /x", status=200, duration_s=0.01, spans=(root,)
        )
        assert recorder.get(record.id) is record
        (row,) = recorder.list()
        assert row["id"] == record.id
        assert row["route"] == "GET /x"
        assert row["status"] == 200
        assert row["interesting"] is False
        assert row["span_count"] == 2  # request + search

    def test_ids_are_monotonic_and_prefixed(self):
        recorder = FlightRecorder(capacity=4)
        first, second = recorder.next_id(), recorder.next_id()
        assert first == "req-000001"
        assert second == "req-000002"

    def test_detail_serializes_span_records(self):
        recorder = FlightRecorder(capacity=4)
        record = recorder.record(
            route="GET /x", status=200, duration_s=0.01,
            spans=(make_span_tree(),),
        )
        detail = record.detail()
        assert detail["spans"][0]["name"] == "service.request"
        assert "epoch_s" in detail["spans"][0]
        roots = obs.records_to_spans(detail["spans"])
        assert roots[0].children[0].name == "session.search"

    def test_missing_id_returns_none(self):
        assert FlightRecorder(capacity=4).get("req-999999") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestVerdicts:
    def test_slow_requests_are_pinned(self):
        recorder = FlightRecorder(capacity=4, slow_s=0.5)
        record = recorder.record(
            route="GET /x", status=200, duration_s=0.9, spans=()
        )
        assert record.interesting
        assert "slow" in record.reasons
        assert recorder.list(interesting_only=True)[0]["id"] == record.id

    def test_5xx_is_an_error_verdict(self):
        recorder = FlightRecorder(capacity=4)
        record = recorder.record(
            route="GET /x", status=503, duration_s=0.01, spans=()
        )
        assert "error" in record.reasons

    def test_errored_span_is_a_verdict_even_on_200(self):
        recorder = FlightRecorder(capacity=4)
        record = recorder.record(
            route="GET /x", status=200, duration_s=0.01,
            spans=(make_error_span_tree(),),
        )
        assert "span_error" in record.reasons

    def test_caller_reasons_pin_too(self):
        recorder = FlightRecorder(capacity=4)
        record = recorder.record(
            route="POST /cells", status=200, duration_s=0.01, spans=(),
            reasons=("degraded", "shard_down"),
        )
        assert record.interesting
        assert set(record.reasons) >= {"degraded", "shard_down"}

    def test_healthy_fast_request_is_not_interesting(self):
        recorder = FlightRecorder(capacity=4, slow_s=1.0)
        record = recorder.record(
            route="GET /x", status=200, duration_s=0.01, spans=()
        )
        assert not record.interesting
        assert recorder.list(interesting_only=True) == []


class TestEviction:
    def test_healthy_burst_cannot_evict_pinned_requests(self):
        recorder = FlightRecorder(capacity=3, slow_s=0.5)
        pinned = recorder.record(
            route="GET /slow", status=200, duration_s=2.0, spans=()
        )
        for index in range(10):
            recorder.record(
                route=f"GET /fast{index}", status=200,
                duration_s=0.001, spans=(),
            )
        # Aged out of the recent ring, still reachable via interesting.
        assert recorder.get(pinned.id) is pinned
        assert recorder.list(interesting_only=True)[0]["id"] == pinned.id

    def test_evicted_everywhere_means_forgotten(self):
        recorder = FlightRecorder(capacity=2, slow_s=1000.0)
        first = recorder.record(
            route="GET /a", status=200, duration_s=0.01, spans=()
        )
        for route in ("GET /b", "GET /c"):
            recorder.record(
                route=route, status=200, duration_s=0.01, spans=()
            )
        assert recorder.get(first.id) is None
        stats = recorder.stats()
        assert stats["dropped"] == 1
        assert stats["recorded"] == 3

    def test_list_is_most_recent_first_and_limited(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(5):
            recorder.record(
                route=f"GET /{index}", status=200,
                duration_s=0.01, spans=(),
            )
        rows = recorder.list(limit=3)
        assert [row["route"] for row in rows] == [
            "GET /4", "GET /3", "GET /2",
        ]


class TestStats:
    def test_stats_shape(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record(
            route="GET /x", status=200, duration_s=0.01, spans=()
        )
        assert recorder.stats() == {
            "capacity": 4,
            "recent": 1,
            "interesting": 0,
            "recorded": 1,
            "dropped": 0,
        }
