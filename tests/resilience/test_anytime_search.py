"""Anytime TPW search: exhausted budgets degrade instead of raising.

The acceptance contract: a search whose budget runs out returns the
best-effort ranked candidates found so far, flagged ``degraded=True``
with a machine-readable reason — and the result is non-empty whenever
at least one pairwise tuple path was instantiated before the cutoff.
"""

import pytest

from repro.core.session import MappingSession
from repro.core.tpw import TPWEngine
from repro.resilience import Budget, REASON_CANCELLED, REASON_WORK

SAMPLE = ("Avatar", "James Cameron")


@pytest.fixture
def engine(running_db):
    return TPWEngine(running_db)


class TestDegradedSearch:
    def test_unbudgeted_search_is_clean(self, engine):
        result = engine.search(SAMPLE)
        assert result.degraded is False
        assert result.degradation is None
        assert len(result.candidates) == 2

    def test_tiny_work_budget_degrades_without_raising(self, engine):
        budget = Budget(max_work=1)
        result = engine.search(SAMPLE, budget=budget)
        assert result.degraded is True
        assert result.degradation["degraded"] is True
        assert result.degradation["reason"] == REASON_WORK
        assert result.degradation["phase"] in (
            "locate", "pairwise", "instantiate", "weave", "rank",
        )

    def test_partial_budget_returns_partial_candidates(self, engine):
        # Empirically, the running example needs ~18 work units for the
        # full search; 14 is enough to instantiate at least one pairwise
        # tuple path, so the degraded answer must not be empty.
        result = engine.search(SAMPLE, budget=Budget(max_work=14))
        assert result.degraded is True
        assert len(result.candidates) >= 1

    def test_generous_budget_matches_the_clean_search(self, engine):
        clean = engine.search(SAMPLE)
        budgeted = engine.search(SAMPLE, budget=Budget(max_work=100_000))
        assert budgeted.degraded is False
        assert [r.mapping.describe() for r in budgeted.candidates] == [
            r.mapping.describe() for r in clean.candidates
        ]

    def test_degradation_reports_skipped_work(self, engine):
        result = engine.search(SAMPLE, budget=Budget(max_work=6))
        phases = result.degradation["phases"]
        assert phases, "at least one phase must record its early stop"
        assert all("skipped" in record for record in phases)

    def test_expired_deadline_degrades_at_locate(self, engine):
        budget = Budget(deadline_s=1e-9, check_stride=1)
        result = engine.search(SAMPLE, budget=budget)
        assert result.degraded is True
        assert result.candidates == []
        assert result.degradation["phase"] == "locate"

    def test_cancellation_degrades_with_its_own_reason(self, engine):
        budget = Budget()
        budget.cancel()
        result = engine.search(SAMPLE, budget=budget)
        assert result.degraded is True
        assert result.degradation["reason"] == REASON_CANCELLED


class TestSessionIntegration:
    def test_degraded_input_records_last_degradation(self, running_db):
        session = MappingSession(running_db, ["Name", "Director"])
        session.input(0, 0, "Avatar")
        status = session.input(
            0, 1, "James Cameron", budget=Budget(max_work=14)
        )
        assert session.last_degradation is not None
        assert session.last_degradation["degraded"] is True
        assert len(session.candidates) >= 1
        assert status is not None

    def test_clean_search_clears_last_degradation(self, running_db):
        session = MappingSession(running_db, ["Name", "Director"])
        session.input(0, 0, "Avatar")
        session.input(0, 1, "James Cameron", budget=Budget(max_work=14))
        assert session.last_degradation is not None
        # Re-running the search without a budget heals the flag.
        session.input(0, 0, "Avatar ")
        assert session.last_degradation is None
