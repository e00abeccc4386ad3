"""Differential checks of the centre-rooted, sign-before-build weave.

``frozen_weave`` keeps the all-roots encoding and the build-then-sign
weave they replaced.  The encodings must induce the same equivalence on
labeled trees, and weaving real searches must keep the same complete
tuple paths with the same per-level counts.  A traced search must also
keep reporting the same weave-level fuse statistics, dominated examples
included.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import TPWConfig
from repro.core.canonical import canonical_signature, tree_adjacency, tree_centres
from repro.core.instantiate import create_pairwise_tuple_paths
from repro.core.location import build_location_map
from repro.core.pairwise import generate_pairwise_mapping_paths
from repro.core.stats import SearchStats
from repro.core.tpw import TPWEngine
from repro.core.weave import _Base, _merge_choices, _Partner, weave_complete_tuple_paths
from repro.graphs.schema_graph import SchemaGraph
from repro.relational.query import JoinTree, JoinTreeEdge
from repro.text.errors import CaseTokenModel

from tests.core.frozen_weave import (
    frozen_canonical_signature,
    frozen_tuple_signature,
    frozen_weave_complete_tuple_paths,
)

MODEL = CaseTokenModel()

#: Tiny alphabets so that repeated labels, the same (relation, row)
#: tuple at two vertices, and equal edge labels are common.
RELATIONS = ("movie", "person")
ROWS = (0, 1)
PROJECTIONS = ((), ((0, "title"),), ((1, "name"),))
FK_NAMES = ("f", "g")


@st.composite
def labeled_trees(draw, max_vertices=12):
    """``(tree, labels)``: a random tree with tuple-path-like labels."""
    n = draw(st.integers(1, max_vertices))
    labels = {
        vertex: (
            draw(st.sampled_from(RELATIONS)),
            draw(st.sampled_from(ROWS)),
            draw(st.sampled_from(PROJECTIONS)),
        )
        for vertex in range(n)
    }
    edges = []
    for vertex in range(1, n):
        parent = draw(st.integers(0, vertex - 1))
        source = draw(st.sampled_from((parent, vertex)))
        fk_name = draw(st.sampled_from(FK_NAMES))
        edges.append(JoinTreeEdge(parent, vertex, fk_name, source))
    return JoinTree({vertex: labels[vertex][0] for vertex in labels}, edges), labels


def renamed(tree, labels, rng):
    """An isomorphic copy: fresh vertex ids listed in a new order,
    shuffled and flipped edges."""
    ids = list(range(100, 100 + len(tree.vertices)))
    rng.shuffle(ids)
    rename = dict(zip(tree.vertices, ids))
    edges = []
    for edge in tree.edges:
        u, v = rename[edge.u], rename[edge.v]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append(JoinTreeEdge(u, v, edge.fk_name, rename[edge.source_vertex]))
    rng.shuffle(edges)
    order = list(tree.vertices)
    rng.shuffle(order)
    vertices = {rename[vertex]: tree.vertices[vertex] for vertex in order}
    return JoinTree(vertices, edges), {rename[v]: label for v, label in labels.items()}


def mutated(tree, labels, rng):
    """The tree with one label, edge label or leaf attachment changed:
    sometimes still isomorphic, usually not.  Expects the vertex ids
    :func:`labeled_trees` draws, where the last vertex is a leaf."""
    labels = dict(labels)
    edges = list(tree.edges)
    choice = rng.randrange(3)
    if choice == 0 or not edges:
        vertex = rng.choice(list(labels))
        labels[vertex] = (
            rng.choice(RELATIONS), rng.choice(ROWS), rng.choice(PROJECTIONS)
        )
    elif choice == 1:
        index = rng.randrange(len(edges))
        edge = edges[index]
        source = edge.source_vertex
        if rng.random() < 0.5:
            source = edge.other(source)
        edges[index] = JoinTreeEdge(edge.u, edge.v, rng.choice(FK_NAMES), source)
    else:
        # Re-hang the last vertex on another parent.
        leaf = max(labels)
        index = next(i for i, edge in enumerate(edges) if leaf in (edge.u, edge.v))
        edge = edges[index]
        parent = rng.randrange(leaf)
        source = leaf if edge.source_vertex == leaf else parent
        edges[index] = JoinTreeEdge(parent, leaf, edge.fk_name, source)
    vertices = {vertex: label[0] for vertex, label in labels.items()}
    return JoinTree(vertices, edges), labels


def both_signatures(tree, labels):
    return (
        canonical_signature(tree, labels.__getitem__),
        frozen_canonical_signature(tree, labels.__getitem__),
    )


class TestCentreRootedEncoding:
    @pytest.mark.parametrize("n_centres", [1, 2])
    @settings(max_examples=150)
    @given(labeled_trees(), st.integers(0, 2**30), st.booleans())
    def test_same_equivalence_as_all_roots(self, n_centres, drawn, seed, mutate):
        tree, labels = drawn
        assume(len(tree_centres(tree_adjacency(tree))) == n_centres)
        rng = random.Random(seed)
        other_tree, other_labels = tree, labels
        if mutate:
            other_tree, other_labels = mutated(tree, labels, rng)
        other_tree, other_labels = renamed(other_tree, other_labels, rng)
        new_a, frozen_a = both_signatures(tree, labels)
        new_b, frozen_b = both_signatures(other_tree, other_labels)
        assert (new_a == new_b) == (frozen_a == frozen_b)

    @settings(max_examples=100)
    @given(labeled_trees(), labeled_trees())
    def test_same_equivalence_on_unrelated_trees(self, first, second):
        new_a, frozen_a = both_signatures(*first)
        new_b, frozen_b = both_signatures(*second)
        assert (new_a == new_b) == (frozen_a == frozen_b)

    def test_centres(self):
        path = JoinTree(
            {0: "a", 1: "a", 2: "a", 3: "a"},
            [JoinTreeEdge(i, i + 1, "f", i) for i in range(3)],
        )
        assert sorted(tree_centres(tree_adjacency(path))) == [1, 2]
        star = JoinTree(
            {0: "a", 1: "a", 2: "a", 3: "a"},
            [JoinTreeEdge(0, i, "f", i) for i in range(1, 4)],
        )
        assert tree_centres(tree_adjacency(star)) == [0]
        assert tree_centres(tree_adjacency(JoinTree({7: "a"}))) == [7]


def pairwise_tuple_paths(db, samples, config=TPWConfig()):
    graph = SchemaGraph(db.schema)
    location_map = build_location_map(db, samples, MODEL)
    pmpm = generate_pairwise_mapping_paths(graph, location_map, config)
    ptpm, _valid = create_pairwise_tuple_paths(db, pmpm, samples, MODEL, config)
    return ptpm


def assert_same_weave(ptpm, target_size, config):
    stats = SearchStats()
    complete = weave_complete_tuple_paths(ptpm, target_size, config, stats)
    frozen, woven, kept = frozen_weave_complete_tuple_paths(ptpm, target_size, config)
    assert stats.woven_per_level == woven
    assert stats.kept_per_level == kept
    assert len(complete) == len(frozen)
    assert {frozen_tuple_signature(path) for path in complete} == {
        frozen_tuple_signature(path) for path in frozen
    }


class TestWeaveAgainstFrozen:
    @pytest.mark.parametrize("set_index", [0, 1, 2])
    @pytest.mark.parametrize("m", [5, 6])
    def test_yahoo_first_rows(self, yahoo_db, task_sets, set_index, m):
        task = task_sets[set_index].task_for_size(m)
        for row in task.target_rows(yahoo_db, limit=4):
            samples = tuple(str(value) for value in row)
            assert_same_weave(pairwise_tuple_paths(yahoo_db, samples), m, TPWConfig())

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_running_example(self, running_db, exhaustive):
        samples = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        config = TPWConfig(exhaustive_weave=exhaustive)
        assert_same_weave(pairwise_tuple_paths(running_db, samples), 4, config)

    def test_signature_before_build_matches_built_path(self, running_db):
        samples = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
        paths = [
            path
            for paths in pairwise_tuple_paths(running_db, samples).values()
            for path in paths
        ]
        checked = 0
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
                        base_path.tree, vertex, base.tokens.__getitem__,
                        partner.tokens, True,
                    ):
                        built = base.build(partner, outcome)
                        assert base.signature_of(partner, outcome) == built.signature()
                        checked += 1
        assert checked > 0


#: Parent-version fuse statistics of the traced running-example search:
#: (level, woven, kept, dominated examples).
EXPECTED_LEVELS = [
    (3, 10, 5, [
        "[movie#0:t0, produce#1:t0, company#2:t0, direct#3:t0, person#4:t0]"
        " {0->movie.title, 1->person.name, 2->company.name}",
        "[movie#0:t0, produce#1:t0, company#2:t0, write#3:t0, person#4:t0]"
        " {0->movie.title, 1->person.name, 2->company.name}",
        "[movie#0:t0, filmedin#1:t0, location#2:t0, direct#3:t0, person#4:t0]"
        " {0->movie.title, 1->person.name, 3->location.loc}",
    ]),
    (4, 6, 2, [
        "[movie#0:t0, direct#1:t0, person#2:t0, filmedin#3:t0, location#4:t0,"
        " produce#5:t0, company#6:t0]"
        " {0->movie.title, 1->person.name, 2->company.name, 3->location.loc}",
        "[movie#0:t0, write#1:t0, person#2:t0, filmedin#3:t0, location#4:t0,"
        " produce#5:t0, company#6:t0]"
        " {0->movie.title, 1->person.name, 2->company.name, 3->location.loc}",
        "[movie#0:t0, produce#1:t0, company#2:t0, filmedin#3:t0, location#4:t0,"
        " direct#5:t0, person#6:t0]"
        " {0->movie.title, 1->person.name, 2->company.name, 3->location.loc}",
    ]),
]


class TestExplainParity:
    def test_weave_level_spans_and_dominated_examples(self, running_db):
        with obs.scoped():
            result = TPWEngine(running_db).search(
                ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
            )
        levels = []
        for span in result.trace.find_all("tpw.weave.level"):
            fuse = span.attributes["fuse"]
            assert fuse["woven"] == span.attributes["woven"]
            assert fuse["kept"] == span.attributes["kept"]
            assert fuse["dominated"] == fuse["woven"] - fuse["kept"]
            levels.append(
                (span.attributes["level"], span.attributes["woven"],
                 span.attributes["kept"], fuse["examples"])
            )
        assert levels == EXPECTED_LEVELS
