"""The edge-set canonical form of trees with distinct labels.

``encode_tree`` signs a tree of two or more vertices with distinct
labels by its set of ``(source label, fk name, target label)`` triples
and any other tree by the centre-rooted AHU tuple.  Both forms must
induce exactly the isomorphism classes of the frozen all-roots
encoding, and the weave's signatures derived from a base must equal
the signatures of the paths it builds, on both branches.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_signature
from repro.core.tuple_path import TuplePath
from repro.core.weave import _Base, _merge_choices, _Partner
from repro.relational.query import JoinTree, JoinTreeEdge

from tests.core.frozen_weave import frozen_canonical_signature
from tests.core.test_weave_oracle import pairwise_tuple_paths, renamed

#: A wide alphabet, so most drawn trees have distinct labels.
RELATIONS = ("movie", "person", "direct", "write", "company", "location")
PROJECTIONS = ((), ((0, "title"),), ((1, "name"),), ((2, "name"), (3, "loc")))
FK_NAMES = ("f", "g", "h", "k")


@st.composite
def wide_labeled_trees(draw, max_vertices=12):
    """``(tree, labels)`` over 2..``max_vertices`` vertices; vertex
    ``n - 1`` is a leaf."""
    n = draw(st.integers(2, max_vertices))
    labels = {
        vertex: (
            draw(st.sampled_from(RELATIONS)),
            draw(st.integers(0, 40)),
            draw(st.sampled_from(PROJECTIONS)),
        )
        for vertex in range(n)
    }
    edges = []
    for vertex in range(1, n):
        parent = draw(st.integers(0, vertex - 1))
        source = draw(st.sampled_from((parent, vertex)))
        edges.append(JoinTreeEdge(parent, vertex, draw(st.sampled_from(FK_NAMES)), source))
    return make_tree(labels, edges), labels


def make_tree(labels, edges):
    return JoinTree({vertex: label[0] for vertex, label in labels.items()}, edges)


def flipped(tree, labels, rng):
    """One edge's FK orientation reversed."""
    edges = list(tree.edges)
    index = rng.randrange(len(edges))
    edge = edges[index]
    edges[index] = JoinTreeEdge(
        edge.u, edge.v, edge.fk_name, edge.other(edge.source_vertex)
    )
    return make_tree(labels, edges), labels


def moved_leaf(tree, labels, rng):
    """The last vertex (a leaf) re-hung on another vertex."""
    leaf = max(labels)
    edges = list(tree.edges)
    index = next(i for i, edge in enumerate(edges) if leaf in (edge.u, edge.v))
    edge = edges[index]
    parent = rng.randrange(leaf)
    source = leaf if edge.source_vertex == leaf else parent
    edges[index] = JoinTreeEdge(parent, leaf, edge.fk_name, source)
    return make_tree(labels, edges), labels


def swapped_labels(tree, labels, rng):
    """Two vertices' labels exchanged."""
    first, second = rng.sample(sorted(labels), 2)
    labels = dict(labels)
    labels[first], labels[second] = labels[second], labels[first]
    return make_tree(labels, tree.edges), labels


def both_signatures(tree, labels):
    return (
        canonical_signature(tree, labels.__getitem__),
        frozen_canonical_signature(tree, labels.__getitem__),
    )


def assert_same_equivalence(first, second):
    new_a, frozen_a = both_signatures(*first)
    new_b, frozen_b = both_signatures(*second)
    assert (new_a == new_b) == (frozen_a == frozen_b)


def distinct(labels):
    return len(set(labels.values())) == len(labels)


class TestEdgeSetForm:
    @settings(max_examples=150)
    @given(wide_labeled_trees(), st.integers(0, 2**30))
    def test_renamed_copy_has_equal_signature(self, drawn, seed):
        tree, labels = drawn
        copy = renamed(tree, labels, random.Random(seed))
        assert_same_equivalence(drawn, copy)
        new, _frozen = both_signatures(tree, labels)
        assert isinstance(new, frozenset) == distinct(labels)

    @pytest.mark.parametrize("mutation", [flipped, moved_leaf, swapped_labels])
    @settings(max_examples=150)
    @given(wide_labeled_trees(), st.integers(0, 2**30))
    def test_near_misses(self, mutation, drawn, seed):
        rng = random.Random(seed)
        other = renamed(*mutation(*drawn, rng), rng)
        assert_same_equivalence(drawn, other)

    @settings(max_examples=100)
    @given(wide_labeled_trees(), wide_labeled_trees())
    def test_unrelated_trees(self, first, second):
        assert_same_equivalence(first, second)

    def test_one_repeated_tuple_against_renamed_copy(self):
        # movie 7 -direct- person 3 and movie 7 -write- person 3: the
        # person tuple repeats with the same (empty) projections.
        labels = {
            0: ("movie", 7, ((0, "title"),)),
            1: ("direct", 1, ()),
            2: ("person", 3, ()),
            3: ("write", 2, ()),
            4: ("person", 3, ()),
            5: ("company", 5, ((1, "name"),)),
            6: ("produce", 4, ()),
        }
        edges = [
            JoinTreeEdge(0, 1, "direct_mid", 1),
            JoinTreeEdge(1, 2, "direct_pid", 1),
            JoinTreeEdge(0, 3, "write_mid", 3),
            JoinTreeEdge(3, 4, "write_pid", 3),
            JoinTreeEdge(0, 6, "produce_mid", 6),
            JoinTreeEdge(6, 5, "produce_cid", 6),
        ]
        tree = make_tree(labels, edges)
        copy = renamed(tree, labels, random.Random(3))
        signature = canonical_signature(tree, labels.__getitem__)
        assert isinstance(signature, tuple)
        assert signature == canonical_signature(copy[0], copy[1].__getitem__)
        # Giving one person a projection makes every label distinct.
        labels[4] = ("person", 3, ((2, "name"),))
        distinct_signature = canonical_signature(tree, labels.__getitem__)
        assert isinstance(distinct_signature, frozenset)
        assert distinct_signature != signature


def director_writer_base():
    """Movie 7 directed and written by person 3, produced by company 5:
    the two person vertices (2 and 4) carry the one repeated label."""
    tree = JoinTree(
        {0: "movie", 1: "direct", 2: "person", 3: "write", 4: "person",
         5: "company", 6: "produce"},
        [
            JoinTreeEdge(0, 1, "direct_mid", 1),
            JoinTreeEdge(1, 2, "direct_pid", 1),
            JoinTreeEdge(0, 3, "write_mid", 3),
            JoinTreeEdge(3, 4, "write_pid", 3),
            JoinTreeEdge(0, 6, "produce_mid", 6),
            JoinTreeEdge(6, 5, "produce_cid", 6),
        ],
    )
    rows = {0: 7, 1: 1, 2: 3, 3: 2, 4: 3, 5: 5, 6: 4}
    return TuplePath(tree, rows, {0: (0, "title"), 1: (5, "name")})


def chain(relations_rows, fk_names, sources, projections):
    """A pairwise tuple path along ``relations_rows``; ``sources[i]`` is
    the source end (0 or 1) of the FK between vertices i and i + 1."""
    tree = JoinTree(
        {vertex: relation for vertex, (relation, _row) in enumerate(relations_rows)},
        [
            JoinTreeEdge(i, i + 1, fk_name, i + source)
            for i, (fk_name, source) in enumerate(zip(fk_names, sources))
        ],
    )
    rows = {vertex: row for vertex, (_relation, row) in enumerate(relations_rows)}
    return TuplePath(tree, rows, projections)


def woven_signatures(base_path, pair_path, shared_key):
    """``(signed before build, signed after build)`` per merge outcome."""
    base = _Base(base_path)
    partner = _Partner(pair_path, shared_key)
    vertex = base_path.projections[shared_key][0]
    return [
        (base.signature_of(partner, outcome), base.build(partner, outcome).signature())
        for outcome in _merge_choices(
            base.neighbors, vertex, base.tokens.__getitem__, partner.tokens, True
        )
    ]


class TestWovenFromRepeatedBase:
    def test_fusing_onto_a_repeated_label_makes_labels_distinct(self):
        # company 5 -produce- movie 7 -direct- person 3 (key 2) fuses all
        # the way onto vertex 2, one of the two equal person labels.
        pair = chain(
            [("company", 5), ("produce", 4), ("movie", 7), ("direct", 1),
             ("person", 3)],
            ["produce_cid", "produce_mid", "direct_mid", "direct_pid"],
            [1, 1, 1, 0],
            {1: (0, "name"), 2: (4, "name")},
        )
        signed = woven_signatures(director_writer_base(), pair, 1)
        fused = [before for before, after in signed if before == after]
        assert len(fused) == len(signed)
        assert any(isinstance(signature, frozenset) for signature in fused)

    def test_fusing_elsewhere_keeps_the_tuple_form(self):
        # company 5 -produce- movie 7 projecting the release (key 2):
        # the person labels stay repeated.
        pair = chain(
            [("company", 5), ("produce", 4), ("movie", 7)],
            ["produce_cid", "produce_mid"],
            [1, 1],
            {1: (0, "name"), 2: (2, "release")},
        )
        signed = woven_signatures(director_writer_base(), pair, 1)
        assert signed and all(before == after for before, after in signed)
        assert all(isinstance(before, tuple) for before, _after in signed)


    def test_a_tail_repeating_a_tuple_is_encoded_whole(self):
        # A single-vertex base has distinct labels, but the tail visits
        # movie 7 twice without projecting it.
        base = TuplePath(
            JoinTree({0: "company"}), {0: 5}, {0: (0, "name"), 1: (0, "city")}
        )
        pair = chain(
            [("company", 5), ("produce", 4), ("movie", 7), ("direct", 1),
             ("person", 3), ("write", 2), ("movie", 7), ("filmedin", 6),
             ("location", 8)],
            ["produce_cid", "produce_mid", "direct_mid", "direct_pid",
             "write_pid", "write_mid", "filmedin_mid", "filmedin_lid"],
            [1, 1, 1, 0, 1, 0, 1, 0],
            {1: (0, "city"), 2: (8, "loc")},
        )
        [(before, after)] = woven_signatures(base, pair, 1)
        assert before == after
        assert isinstance(before, tuple)


class TestSignBeforeBuildOnYahoo:
    @pytest.mark.parametrize("set_index", [0, 1, 2])
    def test_signature_before_build_matches_built_path(
        self, yahoo_db, task_sets, set_index
    ):
        row = task_sets[set_index].task_for_size(5).target_rows(yahoo_db, limit=1)[0]
        paths = [
            path
            for paths in pairwise_tuple_paths(yahoo_db, row).values()
            for path in paths
        ]
        branches = {frozenset: 0, tuple: 0}
        for base_path in paths:
            base = _Base(base_path)
            for key, (vertex, _attribute) in base_path.projections.items():
                for pair_path in paths:
                    if key not in pair_path.projections:
                        continue
                    partner = _Partner(pair_path, key)
                    if partner.far_key in base_path.projections:
                        continue
                    if partner.tokens[0] != base.tokens[vertex]:
                        continue
                    for outcome in _merge_choices(
                        base.neighbors, vertex, base.tokens.__getitem__,
                        partner.tokens, True,
                    ):
                        signature = base.signature_of(partner, outcome)
                        assert signature == base.build(partner, outcome).signature()
                        branches[type(signature)] += 1
        assert branches[frozenset] > 0
        assert branches[tuple] > 0
