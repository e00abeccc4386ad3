"""Ablation — greedy (Algorithm 6) vs exhaustive weaving.

The interactive default only attaches a pairwise path's tail when
fusion fails (the paper's semantics); exhaustive mode also explores the
attach option where fusion would succeed, which adds homomorphically
redundant candidates that user samples can never prune.

Expected shape: exhaustive mode weaves strictly more tuple paths and
returns at least as many candidates, at higher cost — and every greedy
candidate is also found by exhaustive mode (subset relation).
"""

from statistics import mean

from repro.bench.harness import run_tpw_search, sample_tuple_for
from repro.bench.reporting import format_table, write_result
from repro.config import TPWConfig
from repro.core.tpw import TPWEngine
from repro.datasets.workload import user_study_task_yahoo

REPEATS = 3


def test_ablation_weave_mode(benchmark, yahoo_db):
    task = user_study_task_yahoo()
    rows = []
    measured = {}
    for label, config in (
        ("greedy (paper)", TPWConfig()),
        ("exhaustive", TPWConfig(exhaustive_weave=True)),
    ):
        times = []
        candidates = []
        woven = []
        # One untimed search first, so neither mode's figure carries the
        # first-use cost (lazy text indexes and FK adjacency).
        run_tpw_search(yahoo_db, task, seed=0, config=config)
        for repeat in range(REPEATS):
            cell = run_tpw_search(yahoo_db, task, seed=repeat, config=config)
            times.append(cell.seconds * 1000)
            candidates.append(cell.result.n_candidates)
            woven.append(cell.result.stats.total_tuple_paths_processed())
        measured[label] = (mean(times), mean(candidates), mean(woven))
        rows.append(
            [label, f"{mean(times):.2f}", f"{mean(candidates):.2f}",
             f"{mean(woven):.2f}"]
        )

    table = format_table(
        ["weave mode", "search (ms)", "candidates", "tuple paths"],
        rows,
        title="Ablation: greedy vs exhaustive weaving (user-study task)",
    )
    write_result("ablation_weave_mode.txt", table)

    greedy = measured["greedy (paper)"]
    exhaustive = measured["exhaustive"]
    assert exhaustive[1] >= greedy[1]
    assert exhaustive[2] >= greedy[2]

    # Subset check on one concrete run.
    samples = sample_tuple_for(yahoo_db, task, seed=0)
    greedy_found = {
        m.signature()
        for m in TPWEngine(yahoo_db, TPWConfig()).search(samples).mappings
    }
    exhaustive_found = {
        m.signature()
        for m in TPWEngine(yahoo_db, TPWConfig(exhaustive_weave=True))
        .search(samples)
        .mappings
    }
    assert greedy_found <= exhaustive_found

    benchmark(lambda: run_tpw_search(yahoo_db, task, seed=1))
