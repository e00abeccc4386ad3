"""Unit tests for weaving (Algorithms 5–6)."""

from repro.config import TPWConfig
from repro.core.mapping_path import MappingPath
from repro.core.stats import SearchStats
from repro.core.tuple_path import TuplePath
from repro.core.weave import (
    weave_complete_tuple_paths,
    weave_mapping_paths,
    weave_tuple_paths,
)
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.resilience import REASON_WORK, Budget


def chain_tree(relations, edges) -> JoinTree:
    """Build a simple path.

    ``relations`` lists the chain's relations; ``edges`` lists
    ``(fk_name, source_position)`` pairs where ``source_position`` is
    the chain index of the FK's *referencing* side.
    """
    vertices = {index: relation for index, relation in enumerate(relations)}
    tree_edges = tuple(
        JoinTreeEdge(index, index + 1, fk, source_position)
        for index, (fk, source_position) in enumerate(edges)
    )
    return JoinTree(vertices, tree_edges)


def tp(tree, rows, projections) -> TuplePath:
    return TuplePath(tree, rows, projections)


# The shared shape: movie - direct - person, all bound to row 0.
BASE_TREE = chain_tree(
    ["movie", "direct", "person"],
    [("direct_mid", 1), ("direct_pid", 1)],
)


def base_path() -> TuplePath:
    return tp(BASE_TREE, {0: 0, 1: 0, 2: 0}, {0: (0, "title"), 1: (2, "name")})


class TestWeaveTuplePaths:
    def test_full_fusion_preserves_structure(self):
        # pairwise person-direct-movie projecting keys 1 (name) and 2.
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = tp(
            pair_tree,
            {0: 0, 1: 0, 2: 0},
            {1: (0, "name"), 2: (2, "release")},
        )
        results = weave_tuple_paths(base_path(), pair, 1)
        assert len(results) == 1
        woven = results[0]
        assert woven.size == 3
        assert woven.n_joins == 2  # structure unchanged
        assert woven.keys == frozenset({0, 1, 2})
        # key 2 landed on the fused movie vertex
        assert woven.tuple_at(woven.vertex_of_key(2)) == ("movie", 0)

    def test_anchor_tuple_mismatch_fails(self):
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = tp(
            pair_tree,
            {0: 5, 1: 0, 2: 0},  # different person row at the anchor
            {1: (0, "name"), 2: (2, "release")},
        )
        assert weave_tuple_paths(base_path(), pair, 1) == []

    def test_anchor_attribute_mismatch_fails(self):
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = tp(
            pair_tree,
            {0: 0, 1: 0, 2: 0},
            {1: (0, "biography"), 2: (2, "release")},  # name vs biography
        )
        assert weave_tuple_paths(base_path(), pair, 1) == []

    def test_fusion_failure_attaches_tail(self):
        # Pairwise path via a different direct row: must attach a tail.
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = tp(
            pair_tree,
            {0: 0, 1: 7, 2: 9},  # same person, different direct/movie
            {1: (0, "name"), 2: (2, "release")},
        )
        results = weave_tuple_paths(base_path(), pair, 1)
        assert len(results) == 1
        woven = results[0]
        assert woven.n_joins == 4  # two new edges appended
        assert woven.tuple_at(woven.vertex_of_key(2)) == ("movie", 9)

    def test_single_vertex_pair_fuses_onto_anchor(self):
        pair_tree = JoinTree({0: "person"})
        pair = tp(pair_tree, {0: 0}, {1: (0, "name"), 2: (0, "birthplace")})
        results = weave_tuple_paths(base_path(), pair, 1)
        assert len(results) == 1
        woven = results[0]
        assert woven.n_joins == 2
        assert woven.vertex_of_key(2) == woven.vertex_of_key(1)

    def test_greedy_suppresses_redundant_attach(self):
        # Pair exactly mirrors the base: greedy yields ONLY full fusion.
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = tp(
            pair_tree, {0: 0, 1: 0, 2: 0}, {1: (0, "name"), 2: (2, "release")}
        )
        greedy = weave_tuple_paths(base_path(), pair, 1, exhaustive=False)
        exhaustive = weave_tuple_paths(base_path(), pair, 1, exhaustive=True)
        assert len(greedy) == 1
        assert len(exhaustive) == 3  # fusion + attach at two positions
        greedy_signatures = {path.signature() for path in greedy}
        exhaustive_signatures = {path.signature() for path in exhaustive}
        assert greedy_signatures <= exhaustive_signatures

    def test_multiple_fusion_candidates_branch(self):
        # Base has TWO direct vertices with the same tuple adjacent to
        # the anchor: both fusion choices must be explored.
        tree = JoinTree(
            {0: "movie", 1: "direct", 2: "person", 3: "direct"},
            (
                JoinTreeEdge(0, 1, "direct_mid", 1),
                JoinTreeEdge(1, 2, "direct_pid", 1),
                JoinTreeEdge(2, 3, "direct_pid", 3),
            ),
        )
        base = tp(
            tree,
            {0: 0, 1: 0, 2: 0, 3: 0},
            {0: (0, "title"), 1: (2, "name"), 3: (3, "mid")},
        )
        pair_tree = chain_tree(["person", "direct"], [("direct_pid", 1)])
        pair = tp(pair_tree, {0: 0, 1: 0}, {1: (0, "name"), 2: (1, "pid")})
        results = weave_tuple_paths(base, pair, 1)
        # two fusable direct neighbors of the person anchor
        assert len(results) == 2

    def test_rows_of_attached_tail_come_from_pair(self):
        pair_tree = chain_tree(["person", "member_of"], [("member_of_pid", 1)])
        pair = tp(pair_tree, {0: 0, 1: 4}, {1: (0, "name"), 2: (1, "fid")})
        results = weave_tuple_paths(base_path(), pair, 1)
        assert len(results) == 1
        woven = results[0]
        vertex = woven.vertex_of_key(2)
        assert woven.tuple_at(vertex) == ("member_of", 4)


class TestWeaveMappingPaths:
    def test_schema_level_exhaustive_by_default(self):
        base = MappingPath(BASE_TREE, {0: (0, "title"), 1: (2, "name")})
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = MappingPath(pair_tree, {1: (0, "name"), 2: (2, "release")})
        results = weave_mapping_paths(base, pair, 1)
        # full fusion (2 joins), attach after fusing direct (3 joins),
        # attach the whole tail at the anchor (4 joins)
        assert len(results) == 3
        sizes = sorted(path.n_joins for path in results)
        assert sizes == [2, 3, 4]

    def test_schema_level_greedy_opt_in(self):
        base = MappingPath(BASE_TREE, {0: (0, "title"), 1: (2, "name")})
        pair_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair = MappingPath(pair_tree, {1: (0, "name"), 2: (2, "release")})
        results = weave_mapping_paths(base, pair, 1, exhaustive=False)
        assert len(results) == 1
        assert results[0].n_joins == 2


class TestWeaveCompleteLevels:
    def make_ptpm(self):
        """Three pairwise paths over keys (0,1), (1,2) sharing tuples."""
        pair_01 = base_path()
        pair_12_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        pair_12 = tp(
            pair_12_tree, {0: 0, 1: 0, 2: 0}, {1: (0, "name"), 2: (2, "release")}
        )
        return {(0, 1): [pair_01], (1, 2): [pair_12]}

    def test_complete_paths_built(self):
        stats = SearchStats()
        complete = weave_complete_tuple_paths(
            self.make_ptpm(), 3, TPWConfig(), stats
        )
        assert len(complete) == 1
        assert complete[0].keys == frozenset({0, 1, 2})
        assert stats.pairwise_tuple_paths == 2
        assert stats.kept_per_level[3] == 1

    def test_m2_returns_pairwise(self):
        stats = SearchStats()
        ptpm = {(0, 1): [base_path()]}
        complete = weave_complete_tuple_paths(ptpm, 2, TPWConfig(), stats)
        assert len(complete) == 1
        assert complete[0].keys == frozenset({0, 1})

    def make_wide_ptpm(self):
        """A PTPM whose level 3 holds two distinct woven paths."""
        pair_12_tree = chain_tree(
            ["person", "direct", "movie"],
            [("direct_pid", 1), ("direct_mid", 1)],
        )
        variant_a = tp(
            pair_12_tree, {0: 0, 1: 7, 2: 9}, {1: (0, "name"), 2: (2, "release")}
        )
        variant_b = tp(
            pair_12_tree, {0: 0, 1: 8, 2: 10}, {1: (0, "name"), 2: (2, "release")}
        )
        return {(0, 1): [base_path()], (1, 2): [variant_a, variant_b]}

    def test_budget_enforced(self):
        # Unbudgeted, weaving yields two complete paths…
        stats = SearchStats()
        complete = weave_complete_tuple_paths(
            self.make_wide_ptpm(), 3, TPWConfig(), stats
        )
        assert len(complete) == 2
        # …while a budget of one work unit per base stops after two of
        # the three level-2 bases and records a weave degradation.
        budget = Budget(max_work=1)
        weave_complete_tuple_paths(
            self.make_wide_ptpm(), 3, TPWConfig(), SearchStats(),
            budget=budget,
        )
        summary = budget.summary()
        assert summary["phase"] == "weave"
        assert summary["reason"] == REASON_WORK
        assert summary["phases"][0]["skipped"]["bases_skipped"] == 1

    def test_stats_count_woven(self):
        stats = SearchStats()
        weave_complete_tuple_paths(self.make_ptpm(), 3, TPWConfig(), stats)
        assert stats.woven_per_level[3] >= 1
        assert stats.total_tuple_paths_processed() >= 3
