"""Ablation — inverted index vs linear scan for sample location.

Algorithm 1 assumes pre-computed per-column inverted indexes.  This
ablation measures what they buy: the same LocateSample scan with the
index machinery swapped for full column scans.

Expected shape: the inverted index wins by a growing factor as the
database scales (posting intersection vs full scans per attribute).
"""

import time
from statistics import median

from repro.bench.reporting import format_table, write_result
from repro.core.location import build_location_map
from repro.datasets.workload import user_study_task_yahoo
from repro.datasets.yahoo import build_yahoo_movies

#: Sub-millisecond indexed calls need repeats; the median of each
#: side keeps one slow call from moving the speedup column.
REPEATS = 15
#: The first target rows located at every scale.  No sample is shared
#: across scales (each scale generates different movies), so each
#: scale reports the median over the same number of samples rather
#: than one sample that differs from scale to scale.
ROWS = 5
SCALES = (100, 200)


def _locate_ms(databases, rows) -> list[float]:
    """Per database, the median over ``rows`` of each row's median
    LocateSample time.  The databases' calls are interleaved so both
    sides of the ratio see the same host load."""
    times = [[[] for _row in rows] for _db in databases]
    for _repeat in range(REPEATS):
        for index, samples in enumerate(rows):
            for db, series in zip(databases, times):
                started = time.perf_counter()
                build_location_map(db, samples)
                series[index].append((time.perf_counter() - started) * 1000)
    return [
        median(median(row_times) for row_times in series)
        for series in times
    ]


def test_ablation_index(benchmark):
    task = user_study_task_yahoo()
    rows = []
    ratios = []
    for scale in SCALES:
        indexed = build_yahoo_movies(n_movies=scale, seed=7)
        scanned = build_yahoo_movies(n_movies=scale, seed=7)
        scanned.use_inverted_index = False
        targets = task.target_rows(indexed, limit=ROWS)
        assert len(targets) == ROWS

        # Warm both databases so index construction is not measured —
        # the paper's indexes are "pre-computed".
        indexed.warm_indexes()
        scanned.warm_indexes()

        indexed_ms, scanned_ms = _locate_ms((indexed, scanned), targets)
        ratio = scanned_ms / indexed_ms if indexed_ms else float("inf")
        ratios.append(ratio)
        rows.append(
            [scale, f"{indexed_ms:.2f}", f"{scanned_ms:.2f}", f"{ratio:.1f}x"]
        )

    table = format_table(
        ["scale (movies)", "inverted (ms)", "linear scan (ms)", "speedup"],
        rows,
        title=(
            "Ablation: LocateSample with vs without inverted indexes "
            f"(median over the first {ROWS} target rows)"
        ),
    )
    write_result("ablation_index.txt", table)

    assert ratios[-1] > 1.5, "inverted index should beat linear scan"

    indexed = build_yahoo_movies(n_movies=SCALES[0], seed=7)
    samples = task.target_rows(indexed, limit=5)[0]
    build_location_map(indexed, samples)  # warm
    benchmark(lambda: build_location_map(indexed, samples))
