"""Property-based tests (hypothesis) for the text substrate."""

import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.errors import CaseTokenModel, EditDistanceModel, ExactModel
from repro.text.inverted_index import ColumnIndex, LinearScanIndex
from repro.text.normalize import normalize_text, normalize_token
from repro.text.similarity import levenshtein_distance, token_set_similarity
from repro.text.tokenize import tokenize

text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs", "Po")),
    max_size=40,
)
words = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=6
).map(" ".join)


ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=40)
_PUNCT = {ord(ch): " " for ch in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"}


def _unicode_normalize_text(text):
    """The general NFKD / combining-mark / casefold path."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.translate(_PUNCT).casefold().split())


def _unicode_normalize_token(token):
    decomposed = unicodedata.normalize("NFKD", token)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.casefold().strip()


class TestAsciiFastPath:
    """On ASCII input the fast path equals the general Unicode path."""

    @given(ascii_text)
    def test_normalize_text(self, value):
        assert normalize_text(value) == _unicode_normalize_text(value)

    @given(ascii_text)
    def test_normalize_token(self, value):
        assert normalize_token(value) == _unicode_normalize_token(value)


class TestNormalizeProperties:
    @given(text)
    def test_normalize_idempotent(self, value):
        assert normalize_text(normalize_text(value)) == normalize_text(value)

    @given(text)
    def test_tokenize_matches_normalized_split(self, value):
        assert list(tokenize(value)) == normalize_text(value).split()


class TestLevenshteinProperties:
    @given(st.text(max_size=15), st.text(max_size=15))
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(st.text(max_size=15), st.text(max_size=15))
    def test_bounds(self, a, b):
        distance = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(st.text(max_size=12))
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestSimilarityProperties:
    @given(words, words)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= token_set_similarity(a, b) <= 1.0

    @given(words)
    def test_self_similarity_is_one(self, a):
        assert token_set_similarity(a, a) == 1.0


class TestContainmentProperties:
    @given(words)
    def test_cell_contains_itself_token_model(self, value):
        assert CaseTokenModel().contains(value, value)

    @given(words)
    def test_cell_contains_itself_exact_model(self, value):
        assert ExactModel().contains(value, value)

    @given(words)
    def test_exact_implies_token(self, value):
        # exact is the strictest model
        if ExactModel().contains(value, value):
            assert CaseTokenModel().contains(value, value)

    @given(st.lists(words, max_size=10), words)
    def test_token_containment_implies_edit_containment(self, values, sample):
        token_model = CaseTokenModel()
        edit_model = EditDistanceModel(max_distance=1)
        for value in values:
            if token_model.contains(value, sample):
                assert edit_model.contains(value, sample)


class TestIndexOracle:
    """The inverted index must agree with a linear scan on every model."""

    @settings(max_examples=40)
    @given(st.lists(st.one_of(words, st.none()), max_size=12), words)
    def test_inverted_equals_scan_token(self, values, sample):
        inverted = ColumnIndex(values)
        scan = LinearScanIndex(values)
        model = CaseTokenModel()
        assert inverted.search(model, sample) == scan.search(model, sample)

    @settings(max_examples=40)
    @given(st.lists(st.one_of(words, st.none()), max_size=12), words)
    def test_inverted_equals_scan_edit(self, values, sample):
        inverted = ColumnIndex(values)
        scan = LinearScanIndex(values)
        model = EditDistanceModel(max_distance=1)
        assert inverted.search(model, sample) == scan.search(model, sample)

    @settings(max_examples=40)
    @given(st.lists(st.one_of(words, st.none()), max_size=12),
           st.text(alphabet="abcdefgh", min_size=1, max_size=4))
    def test_inverted_equals_scan_substring(self, values, sample):
        from repro.text.errors import SubstringModel

        inverted = ColumnIndex(values)
        scan = LinearScanIndex(values)
        model = SubstringModel()
        assert inverted.search(model, sample) == scan.search(model, sample)
