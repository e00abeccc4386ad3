"""Unit tests for the canonical tree encoding used for deduplication."""

from repro.core.canonical import canonical_signature, signature_sort_key
from repro.relational.query import JoinTree, JoinTreeEdge


def label_from(labels):
    return lambda vertex: labels[vertex]


class TestCanonicalSignature:
    def test_single_vertex(self):
        tree = JoinTree({0: "movie"})
        assert canonical_signature(tree, label_from({0: "m"})) == ("m", ())

    def test_invariant_under_renaming(self):
        tree_a = JoinTree(
            {0: "movie", 1: "direct", 2: "person"},
            (JoinTreeEdge(0, 1, "f", 1), JoinTreeEdge(1, 2, "g", 1)),
        )
        tree_b = JoinTree(
            {10: "movie", 20: "direct", 30: "person"},
            (JoinTreeEdge(10, 20, "f", 20), JoinTreeEdge(20, 30, "g", 20)),
        )
        labels_a = label_from({0: "m", 1: "d", 2: "p"})
        labels_b = label_from({10: "m", 20: "d", 30: "p"})
        assert canonical_signature(tree_a, labels_a) == canonical_signature(
            tree_b, labels_b
        )

    def test_invariant_under_edge_listing_order(self):
        edges_one = (JoinTreeEdge(0, 1, "f", 1), JoinTreeEdge(0, 2, "g", 2))
        edges_two = (JoinTreeEdge(0, 2, "g", 2), JoinTreeEdge(0, 1, "f", 1))
        tree_one = JoinTree({0: "a", 1: "b", 2: "c"}, edges_one)
        tree_two = JoinTree({0: "a", 1: "b", 2: "c"}, edges_two)
        labels = label_from({0: "a", 1: "b", 2: "c"})
        assert canonical_signature(tree_one, labels) == canonical_signature(
            tree_two, labels
        )

    def test_different_labels_differ(self):
        tree = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "f", 0),))
        one = canonical_signature(tree, label_from({0: "a", 1: "b"}))
        two = canonical_signature(tree, label_from({0: "a", 1: "c"}))
        assert one != two

    def test_different_edge_names_differ(self):
        labels = label_from({0: "a", 1: "b"})
        tree_f = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "f", 0),))
        tree_g = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "g", 0),))
        assert canonical_signature(tree_f, labels) != canonical_signature(
            tree_g, labels
        )

    def test_edge_orientation_matters(self):
        labels = label_from({0: "a", 1: "a"})
        forward = JoinTree({0: "x", 1: "x"}, (JoinTreeEdge(0, 1, "f", 0),))
        backward = JoinTree({0: "x", 1: "x"}, (JoinTreeEdge(0, 1, "f", 1),))
        # With identical endpoint labels, flipping the FK direction
        # yields an isomorphic tree (undirected edge between equal
        # labels), so the signatures agree.
        assert canonical_signature(forward, labels) == canonical_signature(
            backward, labels
        )

    def test_orientation_distinguishes_unequal_endpoints(self):
        labels = label_from({0: "a", 1: "b"})
        forward = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "f", 0),))
        backward = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "f", 1),))
        assert canonical_signature(forward, labels) != canonical_signature(
            backward, labels
        )

    def test_star_vs_chain_differ(self):
        labels = label_from({0: "a", 1: "a", 2: "a", 3: "a"})
        chain = JoinTree(
            {0: "x", 1: "x", 2: "x", 3: "x"},
            (
                JoinTreeEdge(0, 1, "f", 0),
                JoinTreeEdge(1, 2, "f", 1),
                JoinTreeEdge(2, 3, "f", 2),
            ),
        )
        star = JoinTree(
            {0: "x", 1: "x", 2: "x", 3: "x"},
            (
                JoinTreeEdge(0, 1, "f", 0),
                JoinTreeEdge(0, 2, "f", 0),
                JoinTreeEdge(0, 3, "f", 0),
            ),
        )
        assert canonical_signature(chain, labels) != canonical_signature(star, labels)

    def test_symmetric_tree_stable(self):
        # A path a-b-a rooted anywhere must give one canonical answer.
        labels = label_from({0: "a", 1: "b", 2: "a"})
        tree = JoinTree(
            {0: "x", 1: "y", 2: "x"},
            (JoinTreeEdge(0, 1, "f", 0), JoinTreeEdge(1, 2, "f", 2)),
        )
        mirrored = JoinTree(
            {2: "x", 1: "y", 0: "x"},
            (JoinTreeEdge(2, 1, "f", 2), JoinTreeEdge(1, 0, "f", 0)),
        )
        assert canonical_signature(tree, labels) == canonical_signature(
            mirrored, labels
        )


class TestSignatureSortKey:
    def test_edge_sets_and_ahu_tuples_sort_together(self):
        path = JoinTree({0: "x", 1: "y"}, (JoinTreeEdge(0, 1, "f", 0),))
        edge_set = canonical_signature(path, label_from({0: "a", 1: "b"}))
        ahu = canonical_signature(path, label_from({0: "a", 1: "a"}))
        single = canonical_signature(JoinTree({0: "x"}), label_from({0: "a"}))
        assert isinstance(edge_set, frozenset) and isinstance(ahu, tuple)
        keys = sorted(map(signature_sort_key, [ahu, edge_set, single]))
        assert keys[0] == signature_sort_key(edge_set)

    def test_equal_signatures_give_equal_keys(self):
        tree_a = JoinTree(
            {0: "movie", 1: "direct", 2: "person"},
            (JoinTreeEdge(0, 1, "f", 1), JoinTreeEdge(1, 2, "g", 1)),
        )
        tree_b = JoinTree(
            {10: "movie", 20: "direct", 30: "person"},
            (JoinTreeEdge(20, 30, "g", 20), JoinTreeEdge(10, 20, "f", 20)),
        )
        key_a = signature_sort_key(
            canonical_signature(tree_a, label_from({0: "m", 1: "d", 2: "p"}))
        )
        key_b = signature_sort_key(
            canonical_signature(tree_b, label_from({10: "m", 20: "d", 30: "p"}))
        )
        assert key_a == key_b
