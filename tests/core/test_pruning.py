"""Unit tests for sample pruning (Section 5)."""

import pytest

from repro.core.pruning import prune_by_attribute, prune_by_structure
from repro.core.tpw import TPWEngine
from tests.core.test_instantiate import count_probes


@pytest.fixture()
def avatar_candidates(running_db):
    """The direct & write candidates from the Avatar sample tuple."""
    result = TPWEngine(running_db).search(("Avatar", "James Cameron"))
    assert result.n_candidates == 2
    return result.mappings


class TestPruneByAttribute:
    def test_keeps_consistent_candidates(self, running_db, avatar_candidates):
        kept = prune_by_attribute(running_db, avatar_candidates, 0, "Big Fish")
        assert len(kept) == 2  # both map column 0 to movie.title

    def test_drops_contradicted_attribute(self, running_db):
        # 'Ed Wood' search yields title / name / logline variants
        result = TPWEngine(running_db).search(("Ed Wood",))
        kept = prune_by_attribute(running_db, result.mappings, 0, "Titanic")
        attributes = {m.attribute_of(0) for m in kept}
        # Titanic only appears in movie.title
        assert attributes == {("movie", "title")}

    def test_unknown_sample_empties(self, running_db, avatar_candidates):
        kept = prune_by_attribute(
            running_db, avatar_candidates, 1, "Nobody Anywhere"
        )
        assert kept == []

    def test_unprojected_key_keeps_candidate(self, running_db, avatar_candidates):
        kept = prune_by_attribute(running_db, avatar_candidates, 9, "whatever")
        assert len(kept) == len(avatar_candidates)

    def test_empty_candidates(self, running_db):
        assert prune_by_attribute(running_db, [], 0, "x") == []


class TestPruneByStructure:
    def test_example_7(self, running_db, avatar_candidates):
        """Big Fish + Tim Burton kills the write variant (Example 7)."""
        kept = prune_by_structure(
            running_db,
            avatar_candidates,
            {0: "Big Fish", 1: "Tim Burton"},
        )
        assert len(kept) == 1
        edge_fks = {edge.fk_name for edge in kept[0].tree.edges}
        assert "direct_mid" in edge_fks

    def test_consistent_row_keeps_both(self, running_db, avatar_candidates):
        # Ed Wood both wrote and directed Ed Wood... that's Tim Burton's
        # movie here; use Titanic (Cameron directed + wrote).
        kept = prune_by_structure(
            running_db,
            avatar_candidates,
            {0: "Titanic", 1: "James Cameron"},
        )
        assert len(kept) == 2

    def test_empty_row_keeps_all(self, running_db, avatar_candidates):
        kept = prune_by_structure(running_db, avatar_candidates, {})
        assert len(kept) == len(avatar_candidates)

    def test_single_sample_still_prunes_structurally(self, running_db,
                                                     avatar_candidates):
        # with one sample the structure query degenerates to attribute
        # containment along the mapping; candidates survive
        kept = prune_by_structure(running_db, avatar_candidates, {0: "Avatar"})
        assert len(kept) == 2

    def test_each_probe_searched_once_per_call(self, running_db,
                                               avatar_candidates, monkeypatch):
        probes = count_probes(monkeypatch)
        row = {0: "Big Fish", 1: "Tim Burton"}
        prune_by_structure(running_db, avatar_candidates, row)
        assert sorted(probes) == [
            ("movie", "title", "Big Fish"), ("person", "name", "Tim Burton"),
        ]
        prune_by_structure(running_db, avatar_candidates, row)
        assert len(probes) == 4

    def test_impossible_combination_empties(self, running_db, avatar_candidates):
        kept = prune_by_structure(
            running_db,
            avatar_candidates,
            {0: "Avatar", 1: "David Yates"},  # Yates did not direct Avatar
        )
        assert kept == []


class TestGoalSurvivalInvariant:
    """Samples drawn from a mapping's own output can never prune it."""

    def test_goal_survives_own_rows(self, running_db):
        engine = TPWEngine(running_db)
        result = engine.search(("Avatar", "James Cameron"))
        for candidate in result.candidates:
            rows = candidate.mapping.execute(running_db, limit=10)
            for row in rows:
                if any(value is None for value in row):
                    continue
                samples = {index: str(value) for index, value in enumerate(row)}
                kept = prune_by_structure(running_db, [candidate.mapping], samples)
                assert kept, f"goal pruned by its own row {row}"
                for index, sample in samples.items():
                    kept = prune_by_attribute(
                        running_db, [candidate.mapping], index, sample
                    )
                    assert kept
