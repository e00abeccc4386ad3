"""Pipeline behaviour under non-default configuration knobs."""

from repro.config import TPWConfig
from repro.core.tpw import TPWEngine


class TestAllowBacktrack:
    def test_backtrack_family_is_superset(self, running_db):
        """U-turn walks only re-derive tuples: with backtracking enabled
        the valid mapping set can only grow (and the growth consists of
        walk-redundant structures)."""
        samples = ("Avatar", "James Cameron")
        default = TPWEngine(running_db, TPWConfig()).search(samples)
        backtrack = TPWEngine(
            running_db, TPWConfig(allow_backtrack=True)
        ).search(samples)
        default_found = {m.signature() for m in default.mappings}
        backtrack_found = {m.signature() for m in backtrack.mappings}
        assert default_found <= backtrack_found

    def test_backtrack_explores_more_pairwise_paths(self, running_db):
        samples = ("Avatar", "James Cameron")
        default = TPWEngine(running_db, TPWConfig()).search(samples)
        backtrack = TPWEngine(
            running_db, TPWConfig(allow_backtrack=True)
        ).search(samples)
        assert (
            backtrack.stats.pairwise_mapping_paths
            >= default.stats.pairwise_mapping_paths
        )


class TestFixturesCache:
    def test_bench_databases_cached(self):
        from repro.bench.fixtures import bench_databases

        first = bench_databases(30)
        second = bench_databases(30)
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_bench_task_sets_cached(self):
        from repro.bench.fixtures import bench_task_sets

        assert bench_task_sets() is bench_task_sets()
