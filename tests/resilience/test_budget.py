"""Tests for the cooperative search budget (anytime cancellation token)."""

import threading

import pytest

from repro.resilience import (
    NULL_BUDGET,
    Budget,
    NullBudget,
    REASON_CANCELLED,
    REASON_DEADLINE,
    REASON_WORK,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestWorkBudget:
    def test_under_budget_is_not_exhausted(self):
        budget = Budget(max_work=10)
        budget.charge(10)
        assert not budget.exhausted()

    def test_over_budget_trips(self):
        budget = Budget(max_work=10)
        budget.charge(11)
        assert budget.exhausted()
        assert budget.reason == REASON_WORK

    def test_exhaustion_is_sticky(self):
        budget = Budget(max_work=1)
        budget.charge(5)
        assert budget.exhausted()
        # Un-tripping the underlying condition must not revive it.
        budget._work = 0
        assert budget.exhausted()

    def test_work_property_counts_charges(self):
        budget = Budget()
        budget.charge()
        budget.charge(4)
        assert budget.work == 5


class TestDeadline:
    def test_deadline_checked_via_injected_clock(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock, check_stride=1)
        assert not budget.exhausted()
        clock.now = 1.5
        assert budget.exhausted()
        assert budget.reason == REASON_DEADLINE

    def test_stride_batches_clock_reads(self):
        clock = FakeClock()
        budget = Budget(deadline_s=1.0, clock=clock, check_stride=4)
        assert not budget.exhausted()  # call 1 always reads the clock
        clock.now = 2.0
        # Calls 2 and 3 skip the clock; call 4 (stride boundary) reads it.
        assert not budget.exhausted()
        assert not budget.exhausted()
        assert budget.exhausted()

    def test_remaining_seconds(self):
        clock = FakeClock()
        budget = Budget(deadline_s=2.0, clock=clock)
        clock.now = 0.5
        assert budget.remaining_s() == pytest.approx(1.5)
        clock.now = 5.0
        assert budget.remaining_s() == 0.0
        assert Budget().remaining_s() is None


class TestCancellation:
    def test_cancel_trips_the_budget(self):
        budget = Budget()
        budget.cancel()
        assert budget.exhausted()
        assert budget.reason == REASON_CANCELLED

    def test_cancel_from_another_thread_is_seen(self):
        budget = Budget()
        seen = threading.Event()

        def cancel():
            budget.cancel()
            seen.set()

        thread = threading.Thread(target=cancel)
        thread.start()
        thread.join()
        assert seen.is_set()
        assert budget.exhausted()


class TestDegradationRecords:
    def test_stop_records_phase_and_skipped_work(self):
        budget = Budget(max_work=1)
        budget.charge(2)
        assert budget.exhausted()
        record = budget.stop("pairwise", walks_explored=3, keys_unexplored=2)
        assert record.phase == "pairwise"
        assert record.reason == REASON_WORK
        assert record.skipped == {"walks_explored": 3, "keys_unexplored": 2}
        assert budget.degraded

    def test_summary_headline_is_the_first_degradation(self):
        budget = Budget(max_work=1)
        budget.charge(2)
        budget.exhausted()
        budget.stop("instantiate", queries_run=4)
        budget.stop("rank", groups_unscored=7)
        summary = budget.summary()
        assert summary["degraded"] is True
        assert summary["phase"] == "instantiate"
        assert summary["reason"] == REASON_WORK
        assert [p["phase"] for p in summary["phases"]] == [
            "instantiate", "rank",
        ]

    def test_clean_budget_summary_is_none(self):
        assert Budget().summary() is None


class TestNullBudget:
    def test_is_the_inert_default(self):
        assert isinstance(NULL_BUDGET, NullBudget)

    def test_never_exhausts_or_records(self):
        assert not NULL_BUDGET.exhausted()
        NULL_BUDGET.charge(10_000)
        NULL_BUDGET.cancel()
        NULL_BUDGET.stop("pairwise", anything=1)
        assert not NULL_BUDGET.exhausted()
        assert NULL_BUDGET.degraded is False
        assert NULL_BUDGET.summary() is None


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"deadline_s": 0.0},
        {"deadline_s": -1.0},
        {"max_work": 0},
        {"check_stride": 0},
        {"max_work": -1},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)
