"""Explanations of budget-degraded searches report only what was queried.

A work budget can stop a search inside pairwise generation (no mapping
path queried yet) or inside instantiation, part-way through one key
pair's queries.  Either way the explanation must list exactly the
mapping paths that were queried, each with its support count: a path
that was never queried is not "kept", and the queries the interrupted
pair did run are not lost.
"""

import pytest

from repro import obs
from repro.core.tpw import TPWEngine
from repro.obs.explain import SearchExplanation
from repro.resilience import Budget

SAMPLE = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")


def budgeted_search(db, max_work):
    with obs.scoped():
        result = TPWEngine(db).search(SAMPLE, budget=Budget(max_work=max_work))
    return result, SearchExplanation.from_span(result.trace)


def stops(result, phase):
    phases = result.degradation["phases"] if result.degraded else ()
    return [record["skipped"] for record in phases if record["phase"] == phase]


def assert_paths_are_queried_paths(result, explanation):
    assert all(path.get("support") is not None for path in explanation.paths)
    assert all(path["support"] >= 1 for path in explanation.surviving_paths())
    pair_spans = result.trace.find_all("tpw.instantiate.pair")
    (instantiate_stop,) = stops(result, "instantiate") or [None]
    queried = (
        instantiate_stop["queries_run"]
        if instantiate_stop is not None
        else sum(span.attributes["mapping_paths"] for span in pair_spans)
    )
    assert len(explanation.paths) == queried


class TestDegradedExplanation:
    def test_stop_inside_pairwise_reports_no_unqueried_path(self, running_db):
        result, explanation = budgeted_search(running_db, 10)
        assert result.degradation["phase"] == "pairwise"
        assert_paths_are_queried_paths(result, explanation)
        assert explanation.paths == []
        assert explanation.surviving_paths() == []

    def test_stop_inside_a_pair_keeps_its_queried_records(self, running_db):
        result, explanation = budgeted_search(running_db, 20)
        (stop,) = stops(result, "instantiate")
        assert result.degradation["phase"] == "instantiate"
        assert stop["queries_run"] >= 1
        interrupted = result.trace.find_all("tpw.instantiate.pair")[-1]
        recorded = interrupted.attributes.get("decisions", [])
        # The budget cut this pair short, after at least one query.
        assert 1 <= len(recorded) < interrupted.attributes["mapping_paths"]
        assert all(record.get("support") is not None for record in recorded)
        assert_paths_are_queried_paths(result, explanation)

    def test_every_budget_explains_only_queried_paths(self, running_db):
        for max_work in range(1, 100):
            result, explanation = budgeted_search(running_db, max_work)
            assert_paths_are_queried_paths(result, explanation)
            if not result.degraded:
                break
        else:
            pytest.fail("the search never completed within 100 work units")
