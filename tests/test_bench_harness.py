"""Tests for the benchmark harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    run_feeder_aggregate,
    run_naive_search,
    run_tpw_search,
    sample_tuple_for,
)
from repro.bench.reporting import ascii_series, format_table, write_result
from repro.bench.resources import measure
from repro.core.stats import SearchStats
from repro.datasets.workload import build_task_sets


@pytest.fixture(scope="module")
def simple_task():
    return build_task_sets()[0].tasks[0]


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bb"], [["x", 1], ["long", 2]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) >= 6 for line in lines)

    def test_title(self):
        table = format_table(["a"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        table = format_table(["v"], [[3.14159]])
        assert "3.14" in table and "3.14159" not in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestAsciiSeries:
    def test_bars_scale_to_peak(self):
        text = ascii_series([(1, 10.0), (2, 5.0)], width=10, label="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_zero_values_have_no_bar(self):
        text = ascii_series([(1, 0.0)], label="flat")
        assert "#" not in text

    def test_empty(self):
        assert "(no data)" in ascii_series([], label="x")


class TestWriteResult:
    def test_writes_and_prints(self, capsys, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(
            reporting, "results_path", lambda name: tmp_path / name
        )
        path = write_result("demo.txt", "hello world")
        assert capsys.readouterr().out.strip() == "hello world"
        assert path.read_text().strip() == "hello world"


class TestHarnessDrivers:
    def test_sample_tuple_deterministic(self, yahoo_db, simple_task):
        one = sample_tuple_for(yahoo_db, simple_task, seed=4)
        two = sample_tuple_for(yahoo_db, simple_task, seed=4)
        assert one == two
        assert len(one) == simple_task.target_size

    def test_run_tpw_search(self, yahoo_db, simple_task):
        cell = run_tpw_search(yahoo_db, simple_task, seed=1)
        assert cell.seconds > 0
        assert cell.result.n_candidates >= 1

    def test_run_naive_search_completes_small(self, yahoo_db, simple_task):
        cell = run_naive_search(yahoo_db, simple_task, seed=1)
        assert not cell.exceeded
        assert cell.valid is not None and cell.valid >= 1
        assert cell.display_seconds != "-"

    def test_run_naive_search_budget(self, yahoo_db, simple_task):
        cell = run_naive_search(
            yahoo_db, simple_task, seed=1, max_candidates=1
        )
        assert cell.exceeded
        assert cell.display_seconds == "-"
        assert cell.display_enumerated == "-"

    def test_run_feeder_aggregate(self, yahoo_db, simple_task):
        aggregate = run_feeder_aggregate(
            yahoo_db, simple_task, n_runs=3, seed=1
        )
        assert aggregate.samples_to_goal >= simple_task.target_size
        assert aggregate.convergence_rate == 1.0
        assert aggregate.search_ms > 0
        # padded series: monotone non-increasing means
        means = [count for _s, count in aggregate.candidates_by_samples]
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))
        assert means[-1] <= 1.0 + 1e-9


class TestTraceSnapshots:
    def test_run_tpw_search_writes_trace_and_metrics(
        self, yahoo_db, simple_task, tmp_path, monkeypatch
    ):
        from repro import obs
        from repro.bench import harness

        monkeypatch.setattr(
            harness, "results_path", lambda name: tmp_path / name
        )
        cell = run_tpw_search(
            yahoo_db, simple_task, seed=1, trace_name="trace.jsonl"
        )
        assert cell.result.n_candidates >= 1
        roots, metrics = obs.parse_jsonl(
            (tmp_path / "trace.jsonl").read_text()
        )
        assert any(
            span.name == "tpw.search" for root in roots for span in root.walk()
        )
        assert metrics is not None

    def test_run_tpw_search_accounts_resources(self, yahoo_db, simple_task):
        cell = run_tpw_search(
            yahoo_db, simple_task, seed=1, measure_resources=True
        )
        assert cell.resources is not None
        assert cell.resources.wall_s > 0
        assert cell.resources.py_peak_bytes > 0
        assert cell.seconds == cell.resources.wall_s

    def test_run_feeder_aggregate_writes_session_trace(
        self, yahoo_db, simple_task, tmp_path, monkeypatch
    ):
        from repro import obs
        from repro.bench import harness

        monkeypatch.setattr(
            harness, "results_path", lambda name: tmp_path / name
        )
        aggregate = run_feeder_aggregate(
            yahoo_db, simple_task, n_runs=2, seed=1,
            trace_name="feeder.jsonl",
        )
        assert aggregate.convergence_rate == 1.0
        roots, metrics = obs.parse_jsonl(
            (tmp_path / "feeder.jsonl").read_text()
        )
        names = {span.name for root in roots for span in root.walk()}
        assert "session.search" in names
        assert "tpw.search" in names
        assert metrics is not None


class TestStatsHelpers:
    def test_level_profile_includes_pairwise(self):
        stats = SearchStats()
        stats.pairwise_tuple_paths = 5
        stats.kept_per_level[3] = 2
        assert stats.level_profile() == {2: 5, 3: 2}

    def test_total_processed(self):
        stats = SearchStats()
        stats.pairwise_tuple_paths = 5
        stats.woven_per_level[3] = 7
        stats.woven_per_level[4] = 2
        assert stats.total_tuple_paths_processed() == 14

    def test_describe_mentions_counts(self):
        stats = SearchStats()
        stats.pairwise_mapping_paths = 4
        stats.timings["total"] = 0.01
        text = stats.describe()
        assert "pairwise mapping paths: 4" in text
        assert "total=10.0ms" in text


class TestResources:
    def test_measure_accounts_wall_and_cpu(self):
        usage = measure(lambda: sum(range(200_000)))
        assert usage.wall_s > 0
        assert usage.cpu_s > 0
        assert usage.value == sum(range(200_000))
        assert usage.py_peak_bytes == 0  # tracing off by default

    def test_measure_traces_python_peak(self):
        usage = measure(lambda: [bytearray(64) for _ in range(2_000)],
                        trace_memory=True)
        assert usage.py_peak_bytes > 100_000
