"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload yahoo-search --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones; both sets are declared in ``BENCHMARK.json``.  The
last line of standard output is the result object; the line before it
records the host and the run's details.  An incorrect output makes
``correct`` false; a run that cannot measure (the program's sources
are missing, a server does not start) exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("yahoo-search", "running-http", "cluster-routed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    from mwbench import procfs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    declared = {metric["name"]: metric["unit"] for metric in section}

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    calibration = [_calibration_ms()]
    try:
        result = _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    calibration.append(_calibration_ms())
    line = result.line(declared, bool(args.trace))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": procfs.host_info(),
        "calibration_ms": calibration,
        **result.notes,
        "errors": result.errors,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now.

    Recorded before and after the workload, so a reader can tell a
    slow run from a slow host (shared hosts drift by a quarter).
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append((time.perf_counter() - started) * 1000)
    return sorted(times)[2]


def _run(args: argparse.Namespace, work_dir: Path):
    if args.workload == "yahoo-search":
        from mwbench import yahoo

        return yahoo.run(args.seed, args.seconds, bool(args.trace))
    from mwbench import served

    if args.workload == "running-http":
        return served.run_service(args.seed, args.seconds, bool(args.trace), work_dir)
    return served.run_cluster(args.seed, args.seconds, bool(args.trace), work_dir)


if __name__ == "__main__":
    sys.exit(main())
