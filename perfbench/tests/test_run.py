import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mwbench import yahoo
from mwbench.result import Result

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_yahoo_plan_is_the_same_work_in_a_seeded_order():
    first, again, other = (
        yahoo.flow_plan(20, 1), yahoo.flow_plan(20, 1), yahoo.flow_plan(20, 2)
    )
    assert first == again
    assert first != other
    assert Counter(first) == Counter(other)
    assert len(first) == 3 * len(yahoo.SIZES) * 25


def test_result_line_holds_exactly_the_declared_metrics():
    result = Result(attempted=2)
    result.metric("a_ms", 1.5, "ms")
    result.metric("extra", 3.0, "count")
    line = result.line({"a_ms": "ms"}, trace=False)
    assert line == {
        "correct": True,
        "attempted": 2,
        "failed": 0,
        "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}},
    }
    with pytest.raises(KeyError):
        result.line({"a_ms": "s"}, trace=False)
    with pytest.raises(KeyError):
        result.line({"b_ms": "ms"}, trace=False)


def test_a_failure_makes_the_run_incorrect():
    result = Result(attempted=3)
    result.fail("wrong answer")
    assert not result.correct
    assert result.line({}, trace=True)["failed"] == 1


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        executable=sys.executable,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
