"""``yahoo-search``: sample-feeding flows over the Yahoo Movies source.

One in-process caller runs a closed loop of flows, each a first-row
search followed by cell-by-cell pruning until the session converges on
the task's goal mapping or the 20*m sample cap runs out -- the paper's
Section 6.2 experiment, at the sizes (m = 5, 6) where weave dominates.

The flow list is fixed for a given ``--seconds`` and ``--trace``: task
sets 1-3 x m in (5, 6) x feeder seeds ``FEEDER_SEED_BASE + k``, so
every such run does identical work and the per-layer counts repeat
exactly.  ``--seed`` shuffles the order the flows run in.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.session import MappingSession
from repro.datasets.workload import build_task_sets
from repro.datasets.yahoo import build_yahoo_movies

from mwbench import procfs
from mwbench.core import CoreAttribution, FlowTimes, run_flow, summarize_flows
from mwbench.result import Result
from mwbench.stats import mean, median

SCALE = 200
DATASET_SEED = 7
SIZES = (5, 6)
FEEDER_SEED_BASE = 1000
#: Flows per (task set, m) cell and second of ``--seconds``, and the
#: fewest per cell: 25 give the prune p99 over a thousand prunes.  At
#: ``--seconds 40`` that is 40 per cell, 240 flows: with 150, the host's
#: speed swings within a run moved ``flows_per_s`` from run to run by
#: about twice as much as with 300 on a shared 2-core host.
FLOWS_PER_CELL_PER_S = 1.0
MIN_FLOWS_PER_CELL = 25
SETUP_REPEATS = 9
ROW_LIMIT = 400
#: Layers this in-process workload never enters: no HTTP, service,
#: journal, cluster or open-loop generator, and metrics stay off.
NOT_ENTERED = (
    ("service.create_p50_ms", "ms"),
    ("service.cells_p50_ms", "ms"),
    ("service.candidates_p50_ms", "ms"),
    ("service.handle_ms", "ms"),
    ("service.http_ms", "ms"),
    ("resilience.journal_ms", "ms"),
    ("obs.metrics_share", "ratio"),
    ("service.location_cache_hit_ratio", "ratio"),
    ("cluster.hop_ms", "ms"),
    ("cluster.coordinator_cpu_ms_per_flow", "ms"),
    ("cluster.shard_cpu_ms_per_flow", "ms"),
    ("cluster.admit_wait_s", "s"),
    ("cluster.replica_lag_ms", "ms"),
    ("cluster.ships_per_flow", "count"),
    ("bench.late_p90_ms", "ms"),
)


def flow_plan(seconds: int, seed: int) -> list[tuple[int, int, int]]:
    """``(task set index, m, feeder seed)`` per flow, in run order."""
    per_cell = max(MIN_FLOWS_PER_CELL, math.ceil(FLOWS_PER_CELL_PER_S * seconds))
    plan = [
        (set_index, m, FEEDER_SEED_BASE + k)
        for set_index in range(3)
        for m in SIZES
        for k in range(per_cell)
    ]
    random.Random(seed).shuffle(plan)
    return plan


def feeder_cells(rows, m: int, feeder_seed: int, goal):
    """The SampleFeeder's input sequence: a random first row, then
    random rows revealed cell by cell in random column order, until the
    session converged on ``goal`` or ``20 * m`` samples were fed."""

    def cells(session: MappingSession):
        rng = random.Random(feeder_seed)
        cap = 20 * m
        fed = 0
        for column, value in enumerate(rng.choice(rows)):
            yield (0, column, value)
            fed += 1
        row_index = 1
        while fed < cap and not _done(session, goal):
            row = rng.choice(rows)
            columns = list(range(m))
            rng.shuffle(columns)
            for column in columns:
                yield (row_index, column, row[column])
                fed += 1
                if fed >= cap or _done(session, goal):
                    return
            row_index += 1

    return cells


def _done(session: MappingSession, goal) -> bool:
    best = session.best_mapping()
    return session.converged and best is not None and best.signature() == goal


def _setup() -> tuple[object, list[float]]:
    """Build and warm the source ``SETUP_REPEATS`` times; keep the last."""
    times = []
    db = None
    for _ in range(SETUP_REPEATS):
        db = None  # release the previous build before timing the next
        started = time.perf_counter()
        db = build_yahoo_movies(n_movies=SCALE, seed=DATASET_SEED)
        db.warm_indexes()
        times.append(time.perf_counter() - started)
    return db, times


def run(seed: int, seconds: int, trace: bool) -> Result:
    """Run the workload; untraced end-to-end or traced per-layer."""
    db, setup_times = _setup()
    tasks = {
        (set_index, m): task_set.task_for_size(m)
        for set_index, task_set in enumerate(build_task_sets())
        for m in SIZES
    }
    rows = {key: task.target_rows(db, limit=ROW_LIMIT) for key, task in tasks.items()}
    # The traced run reports means, so the fewest flows do.
    plan = flow_plan(0 if trace else seconds, seed)
    attribution = CoreAttribution() if trace else None
    result = Result()
    flows: list[FlowTimes] = []
    cpu_before = procfs.cpu_s()
    for set_index, m, feeder_seed in plan:
        task = tasks[(set_index, m)]
        goal = task.goal.signature()
        result.attempted += 1
        try:
            flows.append(
                run_flow(
                    lambda: MappingSession(
                        db, task.columns, on_irrelevant="apply"
                    ),
                    feeder_cells(rows[(set_index, m)], m, feeder_seed, goal),
                    goal,
                    attribution,
                )
            )
        except AssertionError as error:
            result.fail(f"set {set_index + 1} m={m} seed {feeder_seed}: {error}")
    cpu_s = procfs.cpu_s() - cpu_before
    result.note("unconverged", sum(f.outcome == "unconverged" for f in flows))
    result.note("flows", len(plan))
    if trace:
        result.layer_metrics.update(attribution.metrics())
        result.layer("bench.trace_overhead_pct", attribution.overhead_pct(), "%")
        result.layer(
            "core.session_input_ms",
            mean(summarize_flows(flows)["input"]) * 1000, "ms",
        )
        for name, unit in NOT_ENTERED:
            result.layer(name, 0.0, unit)
        return result
    pooled = summarize_flows(flows)
    result.metric("setup_s", median(setup_times), "s")
    result.metric("flows_per_s", len(flows) / sum(pooled["program"]), "1/s")
    result.latencies(
        pooled["search"], pooled["prune"], pooled["input"], max_windows=1
    )
    result.metric("server_cpu_ms_per_flow", cpu_s * 1000 / len(plan), "ms")
    result.metric("rss_mb", procfs.peak_rss_mb(), "MiB")
    result.metric("samples_to_goal", mean(pooled["samples"]), "count")
    return result
