"""Ablation — the noisy-containment error model (Section 4.1).

The ``⊑`` operator is pluggable; this sweep quantifies how the model
choice changes location-map fan-out (how many attributes each sample
hits) and end-to-end search time on the user-study task:

* ``exact``  — strictest: smallest fan-out, but brittle;
* ``token``  — the paper's semantics (MySQL boolean full-text);
* ``substring`` — looser than token on partial words;
* ``edit``   — typo-tolerant: largest fan-out, no index prefilter for
  long tokens, slowest.
"""

from statistics import mean

from repro.bench.harness import sample_tuple_for
from repro.bench.reporting import format_table, write_result
from repro.core.tpw import TPWEngine
from repro.datasets.workload import user_study_task_yahoo
from repro.text.errors import (
    CaseTokenModel,
    EditDistanceModel,
    ExactModel,
    SubstringModel,
)

REPEATS = 3

MODELS = (
    ExactModel(),
    CaseTokenModel(),
    SubstringModel(),
    EditDistanceModel(max_distance=1),
)


def test_ablation_error_model(benchmark, yahoo_db):
    import time

    task = user_study_task_yahoo()
    rows = []
    stats = {}
    for model in MODELS:
        times = []
        hits = []
        candidates = []
        for repeat in range(REPEATS):
            samples = sample_tuple_for(yahoo_db, task, seed=repeat)
            engine = TPWEngine(yahoo_db, model=model)
            started = time.perf_counter()
            result = engine.search(samples)
            times.append((time.perf_counter() - started) * 1000)
            hits.append(result.location_map.total_occurrence_attributes())
            candidates.append(result.n_candidates)
        stats[model.name] = (mean(times), mean(hits), mean(candidates))
        rows.append(
            [model.name, f"{mean(times):.2f}", f"{mean(hits):.2f}",
             f"{mean(candidates):.2f}"]
        )

    table = format_table(
        ["model", "search (ms)", "location hits", "candidates"],
        rows,
        title="Ablation: error models on the user-study task (Yahoo)",
    )
    write_result("ablation_error_model.txt", table)

    # Fan-out ordering: exact <= token <= edit (strictness ordering).
    assert stats["exact"][1] <= stats["token"][1] <= stats["edit"][1]
    # The default token model still finds the goal mapping.
    assert stats["token"][2] >= 1

    samples = sample_tuple_for(yahoo_db, task, seed=0)
    engine = TPWEngine(yahoo_db, model=CaseTokenModel())
    benchmark(lambda: engine.search(samples))
