"""The per-schema memo of pairwise generation changes no output.

``generate_pairwise_mapping_paths`` takes its walks, join trees and
mapping paths from a memo weakly keyed by the schema.  These tests pin
that a memoized call returns exactly what the unmemoized algorithm
(:func:`reference_pairwise`, Algorithms 2–4 as written before the memo)
returns, path for path and in order; that entries never leak across
PMNJ, backtracking or schemas; that an entry dies with its schema; that
concurrent searches agree with a sequential run; and that a budget stop
degrades identically with a cold and a warm memo.  The last class pins
that the search's work counters report exactly the work done.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import obs
from repro.config import TPWConfig
from repro.core import pairwise
from repro.core.location import build_location_map
from repro.core.mapping_path import MappingPath
from repro.core.pairwise import generate_pairwise_mapping_paths, walk_to_tree
from repro.core.tpw import TPWEngine
from repro.datasets.imdb import build_imdb
from repro.datasets.running_example import build_running_example
from repro.datasets.workload import build_task_sets, user_study_task_imdb
from repro.datasets.yahoo import build_yahoo_movies
from repro.graphs.schema_graph import SchemaGraph
from repro.graphs.walks import enumerate_walks
from repro.resilience import Budget
from repro.resilience.budget import NULL_BUDGET
from repro.text.errors import CaseTokenModel

MODEL = CaseTokenModel()
RUNNING_SAMPLE = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")


def reference_pairwise(graph, location_map, config, budget=None):
    """Algorithms 2–4 without a memo: walk, build, cross the attributes."""
    m = len(location_map.samples)
    buckets = {}
    walks_seen = 0
    for key_i in range(m):
        for start in location_map.relations_of(key_i):
            for walk in enumerate_walks(
                graph, start, config.pmnj, allow_backtrack=config.allow_backtrack
            ):
                if budget is not None and budget.exhausted():
                    budget.stop(
                        "pairwise",
                        walks_explored=walks_seen,
                        keys_unexplored=m - key_i - 1,
                    )
                    return dict(sorted(buckets.items()))
                walks_seen += 1
                if budget is not None:
                    budget.charge()
                for key_j in range(key_i + 1, m):
                    attributes_j = location_map.attributes_in_relation(
                        key_j, walk.end
                    )
                    if not attributes_j:
                        continue
                    tree = walk_to_tree(walk)
                    bucket = buckets.setdefault((key_i, key_j), [])
                    for attribute_i in location_map.attributes_in_relation(
                        key_i, start
                    ):
                        for attribute_j in attributes_j:
                            bucket.append(
                                MappingPath(
                                    tree,
                                    {
                                        key_i: (0, attribute_i),
                                        key_j: (walk.n_joins, attribute_j),
                                    },
                                )
                            )
    return dict(sorted(buckets.items()))


def shape(pmpm):
    """Every bucket, in order, as its paths' vertices, edges and projections."""
    return [
        (
            key_pair,
            [
                (
                    sorted(path.tree.vertices.items()),
                    [
                        (edge.u, edge.v, edge.fk_name, edge.source_vertex)
                        for edge in path.tree.edges
                    ],
                    list(path.projections.items()),
                )
                for path in paths
            ],
        )
        for key_pair, paths in pmpm.items()
    ]


def first_row(task, db):
    return tuple(str(value) for value in task.target_rows(db, limit=1)[0])


def yahoo_rows(db, limit):
    """Up to ``limit`` target rows of each task set's m=5 task."""
    return [
        tuple(str(value) for value in row)
        for task_set in build_task_sets()
        for row in task_set.task_for_size(5).target_rows(db, limit=limit)
    ]


#: Each case builds a database with a schema of its own, so the memo
#: starts cold on it.
CASES = {
    "running": lambda: (build_running_example(), RUNNING_SAMPLE),
    "imdb": lambda: (
        (db := build_imdb(n_movies=60)),
        first_row(user_study_task_imdb(), db),
    ),
    "yahoo": lambda: (
        (db := build_yahoo_movies(n_movies=60)),
        first_row(build_task_sets()[0].task_for_size(5), db),
    ),
}


@pytest.fixture(scope="module")
def cases():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("allow_backtrack", [False, True])
@pytest.mark.parametrize("pmnj", [0, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_memoized_output_equals_the_cold_computation(
    cases, case, pmnj, allow_backtrack
):
    db, samples = cases[case]
    config = TPWConfig(pmnj=pmnj, allow_backtrack=allow_backtrack)
    location_map = build_location_map(db, samples, MODEL)
    graph = SchemaGraph(db.schema)
    expected = shape(reference_pairwise(graph, location_map, config))
    first = generate_pairwise_mapping_paths(graph, location_map, config)
    again = generate_pairwise_mapping_paths(
        SchemaGraph(db.schema), location_map, config
    )
    assert shape(first) == expected
    assert shape(again) == expected
    # The warm call hands out the very paths the first call built.
    assert all(
        list(map(id, again[key])) == list(map(id, first[key])) for key in first
    )


class TestIsolation:
    def test_settings_never_share_walks(self):
        db = build_running_example()
        graph = SchemaGraph(db.schema)
        location_map = build_location_map(db, RUNNING_SAMPLE, MODEL)
        configs = [
            TPWConfig(pmnj=pmnj, allow_backtrack=backtrack)
            for pmnj in (3, 2, 1, 0)
            for backtrack in (True, False)
        ]
        # Widest first: a memo keyed by start relation alone would hand
        # the narrower settings walks beyond their bound.
        for config in configs:
            assert shape(
                generate_pairwise_mapping_paths(graph, location_map, config)
            ) == shape(reference_pairwise(graph, location_map, config))
        walk_lists = pairwise._MEMO[db.schema]._walks
        assert {key[1:] for key in walk_lists} == {
            (config.pmnj, config.allow_backtrack) for config in configs
        }
        for (start, pmnj, backtrack), cached in walk_lists.items():
            assert [entry.walk for entry in cached] == list(
                enumerate_walks(graph, start, pmnj, allow_backtrack=backtrack)
            )
        owners = {}
        for key, cached in walk_lists.items():
            for entry in cached:
                assert owners.setdefault(id(entry), key) == key

    def test_attribute_tuples_key_the_mapping_paths(self):
        # Key 1 is in movie.title alone, then also in movie.logline (and
        # person.name): the same walks must not reuse the first paths.
        db = build_running_example()
        graph = SchemaGraph(db.schema)
        for samples in (
            ("James Cameron", "Avatar"),
            ("James Cameron", "Ed Wood"),
            ("Ed Wood", "James Cameron"),
            ("Avatar", "James Cameron"),
        ):
            location_map = build_location_map(db, samples, MODEL)
            assert shape(
                generate_pairwise_mapping_paths(graph, location_map, TPWConfig())
            ) == shape(reference_pairwise(graph, location_map, TPWConfig()))

    def test_schemas_never_share_entries(self):
        one, two = build_running_example(), build_running_example()
        location_map = build_location_map(one, RUNNING_SAMPLE, MODEL)
        config = TPWConfig()
        paths_one = generate_pairwise_mapping_paths(
            SchemaGraph(one.schema), location_map, config
        )
        paths_two = generate_pairwise_mapping_paths(
            SchemaGraph(two.schema), location_map, config
        )
        assert shape(paths_one) == shape(paths_two)
        assert pairwise._MEMO[one.schema] is not pairwise._MEMO[two.schema]
        ids_one = {id(path) for paths in paths_one.values() for path in paths}
        assert not ids_one & {
            id(path) for paths in paths_two.values() for path in paths
        }


def test_entry_is_released_with_its_schema():
    def fill():
        db = build_running_example()
        location_map = build_location_map(db, RUNNING_SAMPLE, MODEL)
        TPWEngine(db).search(RUNNING_SAMPLE)
        generate_pairwise_mapping_paths(
            SchemaGraph(db.schema), location_map, TPWConfig(pmnj=3)
        )
        return weakref.ref(db.schema), weakref.ref(pairwise._MEMO[db.schema])

    schema_ref, memo_ref = fill()
    gc.collect()
    assert schema_ref() is None
    assert memo_ref() is None


def ranked(result):
    return [
        (candidate.mapping.describe(), candidate.score)
        for candidate in result.candidates
    ]


def test_concurrent_searches_match_a_sequential_run(yahoo_db):
    rows = yahoo_rows(yahoo_db, limit=2)
    sequential = [ranked(TPWEngine(yahoo_db).search(row)) for row in rows]
    # A fresh schema, so the threads race on every memo miss; more
    # threads than cores and a short switch interval interleave them.
    db = build_yahoo_movies(n_movies=80, seed=7)
    start = threading.Barrier(4, timeout=30)
    results = [None] * 4
    errors = []

    def session(index):
        try:
            engine = TPWEngine(db)
            start.wait()
            results[index] = [ranked(engine.search(row)) for row in rows]
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=session, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert all(result == sequential for result in results)


@pytest.mark.parametrize("max_work", [1, 7, 40, 150])
def test_budget_stop_degrades_alike_cold_and_warm(max_work):
    db = build_yahoo_movies(n_movies=60)
    samples = yahoo_rows(db, limit=1)[0]
    location_map = build_location_map(db, samples, MODEL)
    config = TPWConfig(pmnj=3)

    def run(pairwise_fn):
        budget = Budget(max_work=max_work)
        pmpm = pairwise_fn(SchemaGraph(db.schema), location_map, config, budget=budget)
        (record,) = [record.to_dict() for record in budget.degradations]
        del record["elapsed_s"]
        return record, shape(pmpm)

    reference = run(reference_pairwise)
    cold = run(generate_pairwise_mapping_paths)
    warm = run(generate_pairwise_mapping_paths)
    assert cold == warm == reference
    assert reference[0]["phase"] == "pairwise"
    assert reference[0]["skipped"]["walks_explored"] == max_work + 1


class TestWorkCounters:
    """Each counter equals the work its search did, budget-stopped too."""

    config = TPWConfig(pmnj=3)

    def counted_search(self, db, budget=NULL_BUDGET):
        with obs.scoped(trace=False):
            result = TPWEngine(db, self.config).search(
                RUNNING_SAMPLE, budget=budget
            )
            counters = obs.get_metrics().snapshot()["counters"]
        return result, counters

    def all_walks(self, db, location_map):
        graph = SchemaGraph(db.schema)
        return sum(
            len(list(enumerate_walks(graph, start, self.config.pmnj)))
            for key in range(len(location_map.samples))
            for start in location_map.relations_of(key)
        )

    def test_clean_search(self, running_db):
        result, counters = self.counted_search(running_db)
        paths = result.stats.pairwise_mapping_paths
        assert counters["repro.pairwise.walks"] == self.all_walks(
            running_db, result.location_map
        )
        assert counters["repro.pairwise.mapping_paths"] == paths
        assert counters["repro.instantiate.queries"] == paths

    @pytest.mark.parametrize(
        "max_work, phase", [(5, "pairwise"), (35, "instantiate"), (40, "weave")]
    )
    def test_budget_stopped_search(self, running_db, max_work, phase):
        result, counters = self.counted_search(running_db, Budget(max_work=max_work))
        assert result.degradation["phase"] == phase
        skipped = {
            record["phase"]: record["skipped"]
            for record in result.degradation["phases"]
        }
        paths = result.stats.pairwise_mapping_paths
        walks = (
            skipped["pairwise"]["walks_explored"]
            if "pairwise" in skipped
            else self.all_walks(running_db, result.location_map)
        )
        queries = (
            skipped["instantiate"]["queries_run"]
            if "instantiate" in skipped
            else paths
        )
        assert counters["repro.pairwise.walks"] == walks
        assert counters["repro.pairwise.mapping_paths"] == paths
        assert counters["repro.instantiate.queries"] == queries
