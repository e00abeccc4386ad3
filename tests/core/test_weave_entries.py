"""The weave's derived level entries and its one fusion walk.

``weave_complete_tuple_paths`` keeps each level's paths as plain-data
entries derived from their base (``_Base.child``), finds outcomes with
one walk over a per-base token index (``_fusions``), and builds a
``TuplePath`` only for the paths it returns.  These tests pin that the
output is the build-then-sign weave's, path for path and in order; that
a derived entry is what a fresh ``_Base`` of its built path would be;
that the walk yields the recursive search's outcomes in its order; and
that paths a budget stop returns are valid tuple paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TPWConfig
from repro.core.stats import SearchStats
from repro.core.tuple_path import TuplePath
from repro.core.weave import (
    _Base,
    _fusions,
    _merge_choices,
    _token_index,
    _WeaveOutcome,
    weave_complete_tuple_paths,
)
from repro.relational.query import JoinTree
from repro.resilience import REASON_WORK, Budget
from repro.text.errors import CaseTokenModel

from tests.core.frozen_weave import frozen_weave_complete_tuple_paths
from tests.core.test_weave_oracle import pairwise_tuple_paths

MODEL = CaseTokenModel()
RUNNING_SAMPLES = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")


def first_row(task_sets, yahoo_db, set_index, m):
    task = task_sets[set_index].task_for_size(m)
    return tuple(str(value) for value in task.target_rows(yahoo_db, limit=1)[0])


def assert_same_paths_in_order(ptpm, target_size, config):
    complete = weave_complete_tuple_paths(ptpm, target_size, config, SearchStats())
    frozen, _woven, _kept = frozen_weave_complete_tuple_paths(
        ptpm, target_size, config
    )
    assert [path.describe() for path in complete] == [
        path.describe() for path in frozen
    ]
    assert [path.tree.edges for path in complete] == [
        path.tree.edges for path in frozen
    ]
    assert [list(path.tree.vertices.items()) for path in complete] == [
        list(path.tree.vertices.items()) for path in frozen
    ]


@pytest.mark.parametrize("exhaustive", [False, True])
class TestSameOutputInOrder:
    @pytest.mark.parametrize("set_index", [0, 1, 2])
    @pytest.mark.parametrize("m", [5, 6])
    def test_yahoo_first_rows(self, yahoo_db, task_sets, set_index, m, exhaustive):
        samples = first_row(task_sets, yahoo_db, set_index, m)
        assert_same_paths_in_order(
            pairwise_tuple_paths(yahoo_db, samples),
            m,
            TPWConfig(exhaustive_weave=exhaustive),
        )

    def test_running_example(self, running_db, exhaustive):
        assert_same_paths_in_order(
            pairwise_tuple_paths(running_db, RUNNING_SAMPLES),
            4,
            TPWConfig(exhaustive_weave=exhaustive),
        )


class TestDerivedEntries:
    @pytest.mark.parametrize("set_index", [0, 1, 2])
    def test_equal_to_a_fresh_base_of_the_built_path(
        self, yahoo_db, task_sets, set_index, monkeypatch
    ):
        derived = []
        child = _Base.child

        def recording_child(self, partner, outcome, signature):
            entry = child(self, partner, outcome, signature)
            derived.append((entry, signature))
            return entry

        monkeypatch.setattr(_Base, "child", recording_child)
        samples = first_row(task_sets, yahoo_db, set_index, 6)
        weave_complete_tuple_paths(
            pairwise_tuple_paths(yahoo_db, samples), 6, TPWConfig(), SearchStats()
        )
        assert derived
        for entry, signature in derived:
            path = entry.build_path()
            fresh = _Base(path)
            entry.prepare()
            assert path.signature() == signature
            assert list(entry.labels.items()) == list(fresh.labels.items())
            assert entry.triples == fresh.triples
            assert list(entry.tokens.items()) == list(fresh.tokens.items())
            assert entry.neighbors == fresh.neighbors
            assert entry.index == fresh.index
            assert list(entry.projections.items()) == list(fresh.projections.items())
            assert entry.next_id == fresh.next_id
            entry.release()

    def test_release_drops_the_per_base_data(self, running_db):
        ptpm = pairwise_tuple_paths(running_db, RUNNING_SAMPLES)
        base = _Base(next(iter(ptpm.values()))[0])
        base.release()
        assert base.tokens is None and base.index is None
        assert base.signatures is None
        assert base.build_path().describe()


def reference_merge_choices(
    neighbors, base_anchor, token_base, pair_tokens, exhaustive
):
    """The recursive fusion search the walk replaced, kept verbatim."""
    outcomes = []

    def recurse(position, current_base, visited):
        if position == len(pair_tokens):
            outcomes.append(_WeaveOutcome(current_base, position))
            return
        pair_token = pair_tokens[position]
        fusable = [
            neighbor
            for neighbor in neighbors[current_base]
            if neighbor not in visited and token_base(neighbor) == pair_token
        ]
        if exhaustive or not fusable:
            outcomes.append(_WeaveOutcome(current_base, position))
        for neighbor in fusable:
            recurse(position + 1, neighbor, visited | {neighbor})

    recurse(1, base_anchor, frozenset((base_anchor,)))
    return outcomes


#: Two tuples only, so one vertex's neighbors often repeat a tuple.
TOKENS = (("person", 3), ("movie", 7))


@st.composite
def token_trees(draw, max_vertices=10):
    """``(neighbors, tokens)`` of a random tree in which some vertex has
    two neighbors carrying the same tuple."""
    n = draw(st.integers(1, max_vertices))
    parents = {vertex: draw(st.integers(0, vertex - 1)) for vertex in range(1, n)}
    tokens = {vertex: draw(st.sampled_from(TOKENS)) for vertex in range(n)}
    hub = draw(st.integers(0, n - 1))
    twin = draw(st.sampled_from(TOKENS))
    for vertex in (n, n + 1):
        parents[vertex] = hub
        tokens[vertex] = twin
    neighbors = {vertex: [] for vertex in tokens}
    for vertex, parent in parents.items():
        neighbors[parent].append(vertex)
        neighbors[vertex].append(parent)
    return neighbors, tokens


class TestFusionWalk:
    @pytest.mark.parametrize("exhaustive", [False, True])
    @settings(max_examples=200)
    @given(token_trees(), st.data())
    def test_same_outcomes_in_order_as_the_recursion(self, exhaustive, drawn, data):
        neighbors, tokens = drawn
        anchor = data.draw(st.sampled_from(sorted(tokens)))
        chain = [tokens[anchor]] + data.draw(
            st.lists(st.sampled_from(TOKENS), max_size=6)
        )
        expected = reference_merge_choices(
            neighbors, anchor, tokens.__getitem__, chain, exhaustive
        )
        index = _token_index(neighbors, tokens.__getitem__)
        assert _fusions(index, anchor, chain, exhaustive) == expected
        assert (
            _merge_choices(neighbors, anchor, tokens.__getitem__, chain, exhaustive)
            == expected
        )

    def test_branches_at_a_repeated_neighbor(self):
        # Movie 0 has two person neighbors (1 and 2) with the same tuple.
        neighbors = {0: [1, 2], 1: [0], 2: [0]}
        tokens = {0: ("movie", 7), 1: ("person", 3), 2: ("person", 3)}
        index = _token_index(neighbors, tokens.__getitem__)
        chain = [("movie", 7), ("person", 3), ("movie", 7)]
        assert _fusions(index, 0, chain, False) == [(1, 2), (2, 2)]
        assert _fusions(index, 0, chain, True) == [(0, 1), (1, 2), (2, 2)]


class TestBudgetPartialPaths:
    def test_every_returned_path_is_valid(self, yahoo_db, task_sets):
        samples = first_row(task_sets, yahoo_db, 0, 6)
        ptpm = pairwise_tuple_paths(yahoo_db, samples)
        stats = SearchStats()
        weave_complete_tuple_paths(ptpm, 6, TPWConfig(), stats)
        # The bases each level weaves: the pairwise paths, then the
        # paths the level before kept.
        bases = {3: stats.pairwise_tuple_paths}
        for level in (4, 5, 6):
            bases[level] = stats.kept_per_level[level - 1]
        sample_of = dict(enumerate(samples))
        stops = 0
        before = 0
        for level in (3, 4, 5, 6):
            # Stop mid-level, before the level's last base, and (after
            # level 3) before its first, which returns the level before.
            stop_points = [bases[level] // 2, bases[level] - 1]
            if level > 3:
                stop_points.append(0)
            for done in stop_points:
                # A budget of ``w`` work units trips after ``w + 1`` bases.
                budget = Budget(max_work=before + done - 1)
                partial = weave_complete_tuple_paths(
                    ptpm, 6, TPWConfig(), SearchStats(), budget=budget
                )
                summary = budget.summary()
                assert summary["phase"] == "weave"
                assert summary["reason"] == REASON_WORK
                assert summary["phases"][0]["skipped"]["level"] == level
                assert summary["phases"][0]["skipped"]["bases_done"] == done
                assert partial
                assert {path.size for path in partial} <= {level - 1, level}
                for path in partial:
                    assert type(path) is TuplePath and type(path.tree) is JoinTree
                    # The constructors accept the path's data again.
                    TuplePath(
                        JoinTree(path.tree.vertices, path.tree.edges),
                        path.rows,
                        path.projections,
                    )
                    path.tree.validate_against(yahoo_db.schema)
                    assert path.check_connected_in(yahoo_db)
                    assert path.is_valid_for(yahoo_db, sample_of, MODEL)
                stops += 1
            before += bases[level]
        assert stops >= 10
