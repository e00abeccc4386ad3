"""End-to-end observability tests: real searches, real span trees."""

import pytest

from repro import obs
from repro.cli import main
from repro.core.naive import NAIVE_PHASES, NaiveEngine
from repro.core.session import MappingSession
from repro.core.stats import PHASES, SearchStats
from repro.core.tpw import TPWEngine

SAMPLE = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")


class TestSearchTrace:
    def test_demo_search_emits_phases_in_order(self, running_db):
        with obs.scoped():
            result = TPWEngine(running_db).search(SAMPLE)
        root = result.trace
        assert root is not None
        assert root.name == "tpw.search"
        phase_children = [
            child.name for child in root.children
            if child.name in ("tpw.locate", "tpw.pairwise",
                              "tpw.instantiate", "tpw.weave", "tpw.rank")
        ]
        assert phase_children == [
            "tpw.locate", "tpw.pairwise", "tpw.instantiate",
            "tpw.weave", "tpw.rank",
        ]
        assert root.find_all("tpw.weave.level"), "per-level weave spans"
        assert root.find_all("tpw.instantiate.pair")
        assert root.attributes["candidates"] == result.n_candidates

    def test_stats_are_derivable_from_the_trace(self, running_db):
        with obs.scoped():
            result = TPWEngine(running_db).search(SAMPLE)
        assert SearchStats.from_span(result.trace) == result.stats

    def test_single_column_stats_from_trace(self, running_db):
        with obs.scoped():
            result = TPWEngine(running_db).search(("Avatar",))
        assert SearchStats.from_span(result.trace) == result.stats

    def test_trace_absent_when_disabled(self, running_db):
        result = TPWEngine(running_db).search(SAMPLE)
        assert result.trace is None
        assert result.stats.timings["total"] > 0  # timing survives

    def test_metrics_accumulate_during_search(self, running_db):
        with obs.scoped():
            TPWEngine(running_db).search(SAMPLE)
            snapshot = obs.get_metrics().snapshot()
        counters = snapshot["counters"]
        assert counters["repro.pairwise.walks"] > 0
        assert counters["repro.instantiate.queries"] > 0
        assert counters["repro.index.probes{index=inverted}"] > 0
        assert snapshot["histograms"]["repro.search.seconds"]["count"] == 1

    def test_search_span_nests_under_its_caller(self, running_db):
        session = MappingSession(running_db, ["Name", "Director"])
        with obs.scoped() as tracer:
            session.input(0, 0, "Avatar")
            session.input(0, 1, "James Cameron")
        roots = [s for s in tracer.finished if s.name == "session.search"]
        assert len(roots) == 1
        assert roots[0].attributes["candidates"] == len(session.candidates)
        assert roots[0].find("tpw.search") is not None
        assert not [s for s in tracer.finished if s.name == "tpw.search"]


class TestTimingsAlwaysComplete:
    def test_tpw_timings_on_empty_search(self, running_db):
        result = TPWEngine(running_db).search(
            ("no-such-value-anywhere", "also-missing")
        )
        assert result.n_candidates == 0
        # Early return must still leave every phase key present.
        assert set(result.stats.timings) == set(PHASES)
        assert result.stats.timings["weave"] == 0.0

    def test_default_stats_carry_all_phases(self):
        assert set(SearchStats().timings) == set(PHASES)

    def test_naive_timings_on_empty_search(self, running_db):
        result = NaiveEngine(running_db).search(("no-such-value-anywhere",))
        assert set(result.timings) == set(NAIVE_PHASES)
        assert result.timings["validate"] == 0.0


class TestCliTracing:
    def test_demo_trace_prints_tree_and_metrics(self, capsys):
        assert main(["demo", "--trace"]) == 0
        output = capsys.readouterr().out
        assert "tpw.search" in output
        for name in ("tpw.locate", "tpw.pairwise", "tpw.instantiate",
                     "tpw.weave.level", "tpw.rank", "session.prune"):
            assert name in output, name
        assert "repro.pairwise.walks" in output

    def test_demo_trace_out_writes_parseable_jsonl(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        assert main(["demo", "--trace-out", str(target)]) == 0
        roots, snapshot = obs.parse_jsonl(target.read_text(encoding="utf-8"))
        assert roots[0].name == "tpw.search"
        assert roots[0].find("tpw.weave.level") is not None
        assert snapshot is not None
        assert snapshot["counters"]["repro.weave.woven"] > 0
        # --trace-out alone must not dump the tree to stdout.
        assert "├─" not in capsys.readouterr().out

    def test_tracing_disabled_by_default(self, capsys):
        assert main(["demo"]) == 0
        assert "tpw.search [" not in capsys.readouterr().out
        assert not obs.tracing_enabled()

    def test_parser_accepts_flags_on_interactive(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["interactive", "--trace", "--log-level", "DEBUG"]
        )
        assert args.trace is True
        assert args.log_level == "DEBUG"


class TestLogging:
    def test_get_logger_namespaces(self):
        assert obs.get_logger("repro.core.tpw").name == "repro.core.tpw"
        assert obs.get_logger("other").name == "repro.other"

    def test_setup_logging_is_idempotent(self):
        import logging

        try:
            obs.setup_logging("DEBUG")
            obs.setup_logging("DEBUG")
            root = logging.getLogger("repro")
            flagged = [
                handler for handler in root.handlers
                if getattr(handler, "_repro_obs_handler", False)
            ]
            assert len(flagged) == 1
            assert root.level == logging.DEBUG
        finally:
            from repro.obs.log import teardown_logging

            teardown_logging()

    def test_log_emission_reaches_stream(self):
        import io

        from repro.obs.log import teardown_logging

        stream = io.StringIO()
        try:
            obs.setup_logging("DEBUG", stream=stream)
            obs.get_logger("repro.test").debug("hello %d", 42)
        finally:
            teardown_logging()
        assert "hello 42" in stream.getvalue()
