"""Thread-safety of the obs layer under the service's worker pool.

Two properties the concurrent service leans on:

* :meth:`Tracer.adopt` lets a worker thread parent its spans under a
  span opened on the request thread, without corrupting either
  thread's stack; :meth:`Tracer.graft` does the same for finished
  trees recorded by another tracer.
* Metrics instruments take a per-instrument lock, so eight threads
  hammering one histogram or counter lose nothing (``+=`` alone is a
  read-modify-write that drops updates under thread switches).
"""

import threading

from repro.obs.export import records_to_spans, span_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer
from repro.resilience import Budget


class TestAdopt:
    def test_adopt_parents_spans_from_another_thread(self):
        tracer = Tracer()
        with tracer.span("request") as request:
            def work():
                with tracer.adopt(request):
                    with tracer.span("job"):
                        pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert [child.name for child in request.children] == ["job"]
        assert [span.name for span in tracer.finished] == ["request"]

    def test_adopt_does_not_finish_or_refile_the_span(self):
        tracer = Tracer()
        span = tracer.span("request")
        with span:
            with tracer.adopt(span):
                pass
            assert span.status == "open"   # adopt never closes it
            assert tracer.finished == ()   # ... nor files it as a root
        assert span.status == "ok"
        assert tracer.finished == (span,)

    def test_adopt_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.adopt(None) as adopted:
            assert adopted is None
            assert tracer.current() is None

    def test_null_tracer_adopt_is_a_noop(self):
        tracer = NullTracer()
        with tracer.adopt(object()) as adopted:
            assert adopted is None

    def test_adopting_thread_keeps_its_own_stack_clean(self):
        tracer = Tracer()
        outcome = {}

        def work(request):
            with tracer.adopt(request):
                outcome["inside"] = tracer.current()
            outcome["after"] = tracer.current()

        with tracer.span("request") as request:
            thread = threading.Thread(target=work, args=(request,))
            thread.start()
            thread.join()
        assert outcome["inside"] is request
        assert outcome["after"] is None


class TestGraft:
    def test_graft_hangs_rebuilt_trees_under_the_open_span(self):
        remote = Tracer()
        with remote.span("shard.request"):
            with remote.span("session.search"):
                pass
        shipped = records_to_spans(span_records(remote.finished))
        tracer = Tracer()
        with tracer.span("request") as request:
            tracer.graft(shipped)
        (child,) = request.children
        assert child.name == "shard.request"
        assert [span.name for span in child.children] == ["session.search"]
        assert [span.name for span in tracer.finished] == ["request"]

    def test_graft_without_an_open_span_files_roots(self):
        remote = Tracer()
        with remote.span("shard.request"):
            pass
        tracer = Tracer()
        tracer.graft(records_to_spans(span_records(remote.finished)))
        assert [span.name for span in tracer.finished] == ["shard.request"]


class TestMetricsContention:
    THREADS = 8
    ROUNDS = 5_000

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def loop():
            barrier.wait()
            for _ in range(self.ROUNDS):
                fn()

        threads = [threading.Thread(target=loop) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_histogram_loses_no_observations(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("test.contention", buckets=(1.0, 2.0))
        self._hammer(lambda: histogram.observe(0.5))
        expected = self.THREADS * self.ROUNDS
        assert histogram.count == expected
        assert histogram.counts == [expected, 0, 0]
        assert histogram.sum == expected * 0.5

    def test_counter_loses_no_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.hits")
        self._hammer(counter.inc)
        assert counter.value == self.THREADS * self.ROUNDS

    def test_gauge_inc_dec_balance(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.depth")

        def bounce():
            gauge.inc()
            gauge.dec()

        self._hammer(bounce)
        assert gauge.value == 0

    def test_get_or_create_races_produce_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        lock = threading.Lock()

        def grab():
            instrument = registry.counter("test.single")
            with lock:
                seen.append(instrument)

        self._hammer(grab)
        assert all(instrument is seen[0] for instrument in seen)


class TestBudgetCancellationVisibility:
    """Cross-thread cancellation of a search budget is promptly seen.

    The service's request thread cancels the worker's budget on
    timeout; the worker polls ``exhausted()`` at iteration boundaries.
    The flag is a single attribute write read without locking — this
    pins down that a hot polling loop actually observes it.
    """

    def test_worker_loop_observes_cancel_from_another_thread(self):
        budget = Budget()
        observed = threading.Event()

        def poll():
            while not budget.exhausted():
                pass
            observed.set()

        worker = threading.Thread(target=poll)
        worker.start()
        budget.cancel()
        worker.join(timeout=5.0)
        assert observed.is_set()
        assert budget.reason == "cancelled"

    def test_many_threads_see_one_sticky_verdict(self):
        budget = Budget(max_work=1)
        budget.charge(2)
        barrier = threading.Barrier(8)
        verdicts = []
        lock = threading.Lock()

        def check():
            barrier.wait()
            value = budget.exhausted()
            with lock:
                verdicts.append(value)

        threads = [threading.Thread(target=check) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert verdicts == [True] * 8
