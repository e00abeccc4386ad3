"""Unit tests for candidate extraction and ranking (Section 4.5.5)."""

from repro.config import RankingWeights
from repro.core.ranking import matching_score, rank_mappings, score_tuple_path
from repro.core.tuple_path import TuplePath
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.text.errors import CaseTokenModel

MODEL = CaseTokenModel()


def direct_path(movie_row=0, direct_row=0, person_row=0) -> TuplePath:
    tree = JoinTree(
        {0: "movie", 1: "direct", 2: "person"},
        (
            JoinTreeEdge(0, 1, "direct_mid", 1),
            JoinTreeEdge(1, 2, "direct_pid", 1),
        ),
    )
    return TuplePath(
        tree,
        {0: movie_row, 1: direct_row, 2: person_row},
        {0: (0, "title"), 1: (2, "name")},
    )


def write_path() -> TuplePath:
    tree = JoinTree(
        {0: "movie", 1: "write", 2: "person"},
        (
            JoinTreeEdge(0, 1, "write_mid", 1),
            JoinTreeEdge(1, 2, "write_pid", 1),
        ),
    )
    return TuplePath(tree, {0: 0, 1: 0, 2: 0}, {0: (0, "title"), 1: (2, "name")})


class TestMatchingScore:
    def test_exact_samples_score_one(self, running_db):
        score = matching_score(
            running_db, direct_path(), {0: "Avatar", 1: "James Cameron"}, MODEL
        )
        assert score == 1.0

    def test_partial_sample_scores_below_one(self, running_db):
        score = matching_score(
            running_db, direct_path(), {0: "Avatar", 1: "James"}, MODEL
        )
        assert 0.0 < score < 1.0

    def test_missing_samples_ignored(self, running_db):
        score = matching_score(running_db, direct_path(), {0: "Avatar"}, MODEL)
        assert score == 1.0

    def test_no_samples_scores_zero(self, running_db):
        assert matching_score(running_db, direct_path(), {}, MODEL) == 0.0


class TestScoreTuplePath:
    def test_join_penalty_applied(self, running_db):
        weights = RankingWeights(match_weight=1.0, join_weight=0.1)
        score = score_tuple_path(
            running_db,
            direct_path(),
            {0: "Avatar", 1: "James Cameron"},
            MODEL,
            weights,
        )
        assert score == 1.0 - 0.2  # two joins

    def test_zero_join_weight(self, running_db):
        weights = RankingWeights(match_weight=1.0, join_weight=0.0)
        score = score_tuple_path(
            running_db,
            direct_path(),
            {0: "Avatar", 1: "James Cameron"},
            MODEL,
            weights,
        )
        assert score == 1.0


class TestRankMappings:
    def test_grouping_by_mapping(self, running_db):
        # Two tuple paths of the same mapping + one of another mapping.
        paths = [direct_path(0, 0, 0), direct_path(1, 1, 1), write_path()]
        ranked = rank_mappings(
            running_db, paths, ("", ""), MODEL, RankingWeights()
        )
        assert len(ranked) == 2
        supports = sorted(candidate.support for candidate in ranked)
        assert supports == [1, 2]

    def test_better_match_ranks_first(self, running_db):
        # Sample matches Avatar exactly; Big Fish path scores lower.
        paths = [direct_path(0, 0, 0), direct_path(1, 1, 1)]
        ranked = rank_mappings(
            running_db, paths, ("Avatar", "James Cameron"), MODEL, RankingWeights()
        )
        # same mapping: single candidate whose score averages both
        assert len(ranked) == 1
        assert 0.0 < ranked[0].score < 1.0

    def test_fewer_joins_break_ties(self, running_db):
        single = TuplePath(
            JoinTree({0: "movie"}), {0: 0}, {0: (0, "title"), 1: (0, "logline")}
        )
        chained = direct_path()
        ranked = rank_mappings(
            running_db, [single, chained], ("", ""), MODEL, RankingWeights()
        )
        assert ranked[0].mapping.n_joins == 0

    def test_empty_input(self, running_db):
        assert rank_mappings(running_db, [], ("x",), MODEL, RankingWeights()) == []

    def test_deterministic(self, running_db):
        paths = [direct_path(), write_path()]
        first = rank_mappings(running_db, paths, ("Avatar", "x"), MODEL, RankingWeights())
        second = rank_mappings(running_db, paths, ("Avatar", "x"), MODEL, RankingWeights())
        assert [c.mapping.describe() for c in first] == [
            c.mapping.describe() for c in second
        ]

    def test_describe(self, running_db):
        ranked = rank_mappings(
            running_db, [direct_path()], ("Avatar", "James Cameron"), MODEL,
            RankingWeights(),
        )
        text = ranked[0].describe()
        assert "score=" in text and "support=1" in text


def renumbered_direct_path() -> TuplePath:
    """:func:`direct_path` with its vertices numbered 9, 3, 5."""
    tree = JoinTree(
        {9: "movie", 3: "direct", 5: "person"},
        (
            JoinTreeEdge(9, 3, "direct_mid", 3),
            JoinTreeEdge(3, 5, "direct_pid", 3),
        ),
    )
    return TuplePath(tree, {9: 0, 3: 0, 5: 0}, {0: (9, "title"), 1: (5, "name")})


class TestTieBreak:
    def test_vertex_numbering_does_not_move_a_tied_candidate(self, running_db):
        # James Cameron directed and wrote Avatar: both mappings score
        # alike with the same joins, so only the tie-break orders them.
        sample = ("Avatar", "James Cameron")
        orders = []
        for direct in (direct_path(), renumbered_direct_path()):
            ranked = rank_mappings(
                running_db, [write_path(), direct], sample, MODEL,
                RankingWeights(),
            )
            assert ranked[0].score == ranked[1].score
            assert ranked[0].mapping.n_joins == ranked[1].mapping.n_joins
            orders.append(
                [candidate.mapping == direct.to_mapping_path()
                 for candidate in ranked]
            )
        assert orders[0] == orders[1]
