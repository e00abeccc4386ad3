"""Tests for the hierarchical span tracer."""

import threading

import pytest

from repro import obs
from repro.obs.tracer import (
    NullTracer,
    Span,
    Stopwatch,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    traced,
    tracing_enabled,
)


class TestSpan:
    def test_records_wall_and_cpu_time(self):
        with Span("work") as span:
            sum(range(10_000))
        assert span.status == "ok"
        assert span.duration > 0
        assert span.cpu_duration >= 0
        assert span.error is None

    def test_attributes_set_and_add(self):
        span = Span("work", {"a": 1})
        span.set("b", "x").add("hits").add("hits", 2)
        assert span.attributes == {"a": 1, "b": "x", "hits": 3}

    def test_exception_marks_error_and_propagates(self):
        span = Span("work")
        with pytest.raises(ValueError, match="boom"):
            with span:
                raise ValueError("boom")
        assert span.status == "error"
        assert span.error == "ValueError: boom"
        assert span.duration > 0

    def test_walk_find_find_all(self):
        root = Span("root")
        first, second = Span("child"), Span("child")
        root.children.extend([first, second])
        first.children.append(Span("leaf"))
        assert [s.name for s in root.walk()] == ["root", "child", "leaf", "child"]
        assert root.find("child") is first
        assert root.find("missing") is None
        assert root.find_all("child") == [first, second]

    def test_restored_reads_no_clocks(self):
        span = Span.restored(
            "old", duration=1.5, cpu_duration=1.2, status="error", error="E: x"
        )
        assert span.duration == 1.5
        assert span.status == "error"


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b") as b:
                with tracer.span("leaf"):
                    pass
            assert tracer.current() is outer
        assert tracer.current() is None
        (root,) = tracer.finished
        assert root is outer
        assert [child.name for child in root.children] == ["inner.a", "inner.b"]
        assert [child.name for child in b.children] == ["leaf"]

    def test_sequential_roots_collect_in_order(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span.name for span in tracer.finished] == ["first", "second"]
        tracer.reset()
        assert tracer.finished == ()

    def test_exception_still_closes_and_attaches(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("x")
        (root,) = tracer.finished
        assert root.status == "error"
        assert root.children[0].status == "error"

    def test_threads_do_not_share_stacks(self):
        tracer = Tracer()
        seen = []

        def work(label):
            with tracer.span(f"thread.{label}"):
                seen.append(tracer.current().name)

        with tracer.span("main"):
            thread = threading.Thread(target=work, args=("a",))
            thread.start()
            thread.join()
            assert tracer.current().name == "main"
        assert seen == ["thread.a"]
        # The thread's span finished with an empty stack there: own root.
        assert {span.name for span in tracer.finished} == {"main", "thread.a"}


class TestDisabledPath:
    def test_null_tracer_hands_out_stopwatches(self):
        tracer = NullTracer()
        with tracer.span("anything", attr=1) as watch:
            sum(range(1000))
        assert isinstance(watch, Stopwatch)
        assert watch.duration > 0  # real wall-clock, per the contract
        assert watch.attributes == {}
        assert watch.set("k", "v") is watch
        assert watch.record("decisions", {"k": "v"}) is watch
        assert watch.attributes == {}
        assert tracer.finished == ()
        assert tracer.current() is None

    def test_stopwatch_never_swallows(self):
        with pytest.raises(KeyError):
            with NullTracer().span("x"):
                raise KeyError("k")

    def test_global_handle_toggles(self):
        assert not tracing_enabled()
        try:
            tracer = enable_tracing()
            assert tracing_enabled()
            assert get_tracer() is tracer
            assert enable_tracing() is tracer  # idempotent
        finally:
            disable_tracing()
        assert not tracing_enabled()
        assert isinstance(get_tracer(), NullTracer)


class TestScopedAndDecorator:
    def test_scoped_swaps_and_restores(self):
        before = get_tracer()
        with obs.scoped() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
            with tracer.span("inside"):
                pass
        assert get_tracer() is before
        assert [span.name for span in tracer.finished] == ["inside"]

    def test_scoped_reuses_an_enabled_tracer(self):
        with obs.scoped() as outer:
            with obs.scoped() as inner:
                assert inner is outer

    def test_traced_decorator(self):
        @traced("custom.name")
        def work(x):
            return x * 2

        with obs.scoped() as tracer:
            assert work(21) == 42
        assert [span.name for span in tracer.finished] == ["custom.name"]

    def test_traced_default_name(self):
        @traced()
        def helper():
            return 1

        with obs.scoped() as tracer:
            helper()
        assert "helper" in tracer.finished[0].name
