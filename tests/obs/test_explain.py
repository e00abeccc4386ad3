"""Tests for the explain/provenance layer (``repro.obs.explain``)."""

import json

import pytest

from repro import obs
from repro.core.stats import SearchStats
from repro.core.tpw import TPWEngine
from repro.obs.explain import ExplainRecorder, NULL_EXPLAIN, SearchExplanation

#: The paper's Example 7 input: Tim Burton directed Big Fish but did
#: not write it, so the ``write`` pairwise path gets zero support.
ZERO_SUPPORT_SAMPLE = ("Big Fish", "Tim Burton")
FULL_SAMPLE = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")


@pytest.fixture()
def traced_search(running_db):
    with obs.scoped():
        result = TPWEngine(running_db).search(ZERO_SUPPORT_SAMPLE)
    return result


@pytest.fixture()
def full_search(running_db):
    with obs.scoped():
        result = TPWEngine(running_db).search(FULL_SAMPLE)
    return result


class TestSearchExplanation:
    def test_reports_pruned_and_surviving_paths(self, traced_search):
        explanation = SearchExplanation.from_span(traced_search.trace)
        kept = explanation.surviving_paths()
        pruned = explanation.pruned_paths()
        assert len(kept) >= 1 and len(pruned) >= 1
        assert all(path["support"] >= 1 for path in kept)
        zero = [p for p in pruned if p["reason"] == "zero-support"]
        assert zero and all(p["support"] == 0 for p in zero)
        assert any("write" in path["path"] for path in zero)

    def test_prune_totals_by_reason(self, traced_search):
        totals = SearchExplanation.from_span(traced_search.trace).prune_totals()
        assert set(totals) == {"zero-support", "pmnj", "dominated"}
        assert totals["zero-support"] >= 1
        assert totals["pmnj"] >= 1  # walks stop at the PMNJ=2 horizon

    def test_score_decomposition(self, traced_search):
        explanation = SearchExplanation.from_span(traced_search.trace)
        assert explanation.scores, "ranked candidates must carry scores"
        for entry in explanation.scores:
            assert entry["score"] == pytest.approx(
                entry["match_term"] - entry["join_term"]
            )
            assert entry["support"] >= 1
        ranks = [entry["rank"] for entry in explanation.scores]
        assert ranks == sorted(ranks)

    def test_weave_fuse_statistics(self, full_search):
        explanation = SearchExplanation.from_span(full_search.trace)
        assert explanation.levels, "multi-column search must report levels"
        assert "dominated" not in explanation.levels[0]  # the entry count
        for level in explanation.levels[1:]:
            assert level["dominated"] >= 0
        # The 4-column running-example search weaves the same complete
        # path through several pair orders: domination must fire.
        assert explanation.prune_totals()["dominated"] >= 1

    def test_from_span_rejects_other_spans(self, traced_search):
        child = traced_search.trace.children[0]
        with pytest.raises(ValueError, match="tpw.search"):
            SearchExplanation.from_span(child)

    def test_search_id_on_trace_and_result(self, traced_search):
        assert traced_search.search_id > 0
        assert (
            traced_search.trace.attributes["search_id"]
            == traced_search.search_id
        )


class TestFromTrace:
    def test_single_search(self, traced_search):
        explanation = SearchExplanation.from_trace([traced_search.trace])
        assert explanation.search_id == traced_search.search_id

    def test_multi_search_requires_id(self, running_db):
        engine = TPWEngine(running_db)
        with obs.scoped() as tracer:
            first = engine.search(ZERO_SUPPORT_SAMPLE)
            second = engine.search(FULL_SAMPLE)
        with pytest.raises(ValueError, match="pass search_id"):
            SearchExplanation.from_trace(tracer.finished)
        explanation = SearchExplanation.from_trace(
            tracer.finished, search_id=second.search_id
        )
        assert explanation.columns == len(FULL_SAMPLE)
        assert SearchExplanation.from_trace(
            tracer.finished, search_id=first.search_id
        ).columns == len(ZERO_SUPPORT_SAMPLE)

    def test_unknown_id(self, traced_search):
        with pytest.raises(ValueError, match="no tpw.search"):
            SearchExplanation.from_trace([traced_search.trace], search_id=999)

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="no tpw.search"):
            SearchExplanation.from_trace([])


class TestJsonlRoundTrip:
    def test_explain_survives_jsonl(self, traced_search):
        before = SearchExplanation.from_span(traced_search.trace)
        text = obs.to_jsonl([traced_search.trace])
        roots, _metrics = obs.parse_jsonl(text)
        after = SearchExplanation.from_trace(roots)
        assert after.paths == before.paths
        assert after.scores == before.scores
        assert after.levels == before.levels
        assert after.pmnj_frontier == before.pmnj_frontier
        assert after.prune_totals() == before.prune_totals()

    def test_stats_from_trace_matches(self, traced_search):
        text = obs.to_jsonl([traced_search.trace])
        roots, _metrics = obs.parse_jsonl(text)
        assert (
            SearchStats.from_trace(roots, search_id=traced_search.search_id)
            == traced_search.stats
        )


class TestRenderers:
    def test_text_report(self, traced_search):
        text = SearchExplanation.from_span(traced_search.trace).to_text()
        assert "pruned (zero-support)" in text
        assert "kept" in text
        assert "score decomposition" in text

    def test_json_report(self, traced_search):
        payload = json.loads(
            SearchExplanation.from_span(traced_search.trace).to_json()
        )
        assert payload["prune_totals"]["zero-support"] >= 1
        assert payload["paths"] and payload["scores"]

    def test_html_report_is_single_file(self, traced_search):
        html = SearchExplanation.from_span(traced_search.trace).to_html()
        assert html.startswith("<!doctype html>")
        assert "zero-support" in html
        assert "src=" not in html and "href=" not in html  # no external assets


class TestRecorder:
    def test_caps_and_counts_drops(self, running_db):
        from repro.core.mapping_path import single_relation_mapping

        recorder = ExplainRecorder(limit=2)
        mapping = single_relation_mapping("movie", {0: "title"})
        for _ in range(5):
            recorder.pairwise_decision((0, 1), mapping, "kept")
        with obs.scoped() as tracer:
            with tracer.span("tpw.pairwise") as span:
                recorder.annotate_pairwise(span)
        assert len(span.attributes["decisions"]) == 2
        assert span.attributes["decisions_dropped"] == 3

    def test_disabled_search_records_nothing(self, running_db):
        result = TPWEngine(running_db).search(ZERO_SUPPORT_SAMPLE)
        assert result.trace is None
        assert result.n_candidates == 1  # behavior identical untraced

    def test_null_recorder_is_inert(self):
        assert NULL_EXPLAIN.enabled is False
        NULL_EXPLAIN.pairwise_decision((0, 1), None, "kept")
        NULL_EXPLAIN.score(1, None, score=0, match_mean=0,
                           match_term=0, join_term=0, support=0)
        NULL_EXPLAIN.annotate_pairwise(None)
        NULL_EXPLAIN.annotate_rank(None)


class TestSessionPruneProvenance:
    def test_prune_decisions_on_session_spans(self, running_db):
        from repro.core.session import MappingSession

        with obs.scoped() as tracer:
            session = MappingSession(running_db, ["Name", "Director"])
            session.input(0, 0, "Avatar")
            session.input(0, 1, "James Cameron")
            session.input(1, 0, "Big Fish")
            session.input(1, 1, "Tim Burton")
        prune_spans = [
            span
            for root in tracer.finished
            for span in root.walk()
            if span.name in ("session.prune", "session.replay")
            and span.attributes.get("decisions")
        ]
        assert prune_spans, "session pruning must leave decision records"
        decisions = [
            record
            for span in prune_spans
            for record in span.attributes["decisions"]
        ]
        assert any(record["decision"] == "pruned" for record in decisions)
        assert all(
            record["reason"] in (None, "attribute", "structure")
            for record in decisions
        )
