"""Unit tests for the per-column inverted index."""

import pytest

from repro.text.errors import (
    CaseTokenModel,
    EditDistanceModel,
    ExactModel,
    NumericToleranceModel,
)
from repro.text.inverted_index import (
    ColumnIndex,
    LinearScanIndex,
    build_column_index,
)

VALUES = [
    "Avatar",                     # 0
    "Big Fish",                   # 1
    "Harry Potter",               # 2
    "Ed Wood",                    # 3
    "The Big Empire",             # 4
    None,                         # 5
    "big BIG fish",               # 6
]


@pytest.fixture()
def index():
    return ColumnIndex(VALUES)


class TestColumnIndex:
    def test_len(self, index):
        assert len(index) == len(VALUES)

    def test_postings_sorted(self, index):
        assert list(index.postings("big")) == [1, 4, 6]

    def test_postings_unknown_token(self, index):
        assert list(index.postings("zzz")) == []

    def test_null_rows_not_indexed(self, index):
        for token, in []:
            pass
        assert 5 not in set(index.postings("avatar"))
        assert index.vocabulary_size > 0

    def test_search_token_model(self, index):
        assert index.search(CaseTokenModel(), "Big Fish") == [1, 6]

    def test_search_single_token(self, index):
        assert index.search(CaseTokenModel(), "big") == [1, 4, 6]

    def test_search_exact_model_verifies(self, index):
        # "Big" alone intersects postings but only exact cells survive.
        assert index.search(ExactModel(), "Avatar") == [0]
        assert index.search(ExactModel(), "Big") == []

    def test_search_no_match(self, index):
        assert index.search(CaseTokenModel(), "nonexistent") == []

    def test_contains_any(self, index):
        assert index.contains_any(CaseTokenModel(), "harry")
        assert not index.contains_any(CaseTokenModel(), "hermione")

    def test_edit_distance_model_scans(self, index):
        # "Avatr" has no exact postings but verifies within 1 edit.
        assert index.search(EditDistanceModel(max_distance=1), "Avatr") == [0]

    def test_substring_model_scans(self):
        """Regression: a sample matching inside a larger token must not
        be dropped by the posting-list prefilter."""
        from repro.text.errors import SubstringModel

        values = ["Lightstorm Co.", "The Light House", "Dark Matter"]
        inverted = ColumnIndex(values)
        scan = LinearScanIndex(values)
        model = SubstringModel()
        assert inverted.search(model, "light") == [0, 1]
        assert inverted.search(model, "light") == scan.search(model, "light")

    def test_candidate_rows_empty_token_set_means_all(self, index):
        model = EditDistanceModel(max_distance=1)
        assert list(index.candidate_rows(model, "Avatar")) == list(range(len(VALUES)))

    def test_token_model_answers_from_postings(self, index, monkeypatch):
        model = CaseTokenModel()

        def reread(cell, sample):
            raise AssertionError("postings are exact; no cell is re-read")

        monkeypatch.setattr(model, "contains", reread)
        assert index.search(model, "Big Fish") == [1, 6]
        assert index.contains_any(model, "harry")

    def test_token_model_empty_sample_matches_nothing(self, index):
        assert index.search(CaseTokenModel(), "...") == []
        assert not index.contains_any(CaseTokenModel(), "")

    @pytest.mark.parametrize(
        ("sample", "expected"),
        [("1999.0", [0]), ("01999", [0]), ("1.9995e3", [3]), ("2000", [1])],
    )
    def test_numeric_samples_match_by_value(self, sample, expected):
        """Regression: at tolerance 0 a numeric sample's text tokens used
        to prefilter the postings, dropping cells equal by value."""
        values = [1999, 2000.0, "x", 1999.5]
        model = NumericToleranceModel(relative_tolerance=0.0)
        scan = LinearScanIndex(values)
        assert scan.search(model, sample) == expected
        assert ColumnIndex(values).search(model, sample) == expected
        assert ColumnIndex(values).contains_any(model, sample)

    def test_duplicate_tokens_in_cell_indexed_once(self):
        index = ColumnIndex(["big big big"])
        assert list(index.postings("big")) == [0]


class TestLinearScanIndex:
    def test_search_equivalent_to_inverted(self):
        inverted = ColumnIndex(VALUES)
        scan = LinearScanIndex(VALUES)
        for sample in ("Big Fish", "Avatar", "wood", "nonexistent"):
            assert scan.search(CaseTokenModel(), sample) == inverted.search(
                CaseTokenModel(), sample
            )

    def test_contains_any(self):
        scan = LinearScanIndex(VALUES)
        assert scan.contains_any(CaseTokenModel(), "potter")
        assert not scan.contains_any(CaseTokenModel(), "gandalf")

    def test_postings_unsupported(self):
        with pytest.raises(NotImplementedError):
            LinearScanIndex(VALUES).postings("big")


class TestBuildColumnIndex:
    def test_inverted_by_default(self):
        assert isinstance(build_column_index(VALUES), ColumnIndex)

    def test_linear_on_request(self):
        assert isinstance(
            build_column_index(VALUES, use_inverted=False), LinearScanIndex
        )
