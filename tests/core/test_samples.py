"""Unit tests for the input spreadsheet model."""

import pytest

from repro.core.samples import Spreadsheet
from repro.exceptions import SessionError


class TestConstruction:
    def test_columns_fixed(self):
        sheet = Spreadsheet(["Name", "Director"])
        assert sheet.columns == ("Name", "Director")
        assert sheet.n_columns == 2

    def test_empty_columns_rejected(self):
        with pytest.raises(SessionError):
            Spreadsheet([])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SessionError):
            Spreadsheet(["A", "A"])

    def test_blank_column_rejected(self):
        with pytest.raises(SessionError):
            Spreadsheet(["A", ""])


class TestCells:
    def test_set_and_get(self):
        sheet = Spreadsheet(["A", "B"])
        sheet.set_cell(0, 0, "x")
        assert sheet.cell(0, 0) == "x"
        assert sheet.cell(0, 1) is None

    def test_content_stripped(self):
        sheet = Spreadsheet(["A"])
        sheet.set_cell(0, 0, "  Avatar  ")
        assert sheet.cell(0, 0) == "Avatar"

    def test_empty_clears(self):
        sheet = Spreadsheet(["A"])
        sheet.set_cell(0, 0, "x")
        sheet.set_cell(0, 0, "   ")
        assert sheet.cell(0, 0) is None
        assert sheet.sample_count() == 0

    def test_negative_row_rejected(self):
        with pytest.raises(SessionError):
            Spreadsheet(["A"]).set_cell(-1, 0, "x")

    def test_column_out_of_range(self):
        with pytest.raises(SessionError):
            Spreadsheet(["A"]).set_cell(0, 1, "x")

    def test_overwrite(self):
        sheet = Spreadsheet(["A"])
        sheet.set_cell(0, 0, "x")
        sheet.set_cell(0, 0, "y")
        assert sheet.cell(0, 0) == "y"
        assert sheet.sample_count() == 1


class TestRows:
    def test_row_samples(self):
        sheet = Spreadsheet(["A", "B", "C"])
        sheet.set_cell(1, 0, "x")
        sheet.set_cell(1, 2, "z")
        assert sheet.row_samples(1) == {0: "x", 2: "z"}

    def test_row_samples_empty(self):
        sheet = Spreadsheet(["A"])
        assert sheet.row_samples(5) == {}

    def test_occupied_rows(self):
        sheet = Spreadsheet(["A", "B"])
        assert sheet.occupied_rows() == []
        sheet.set_cell(3, 1, "y")
        sheet.set_cell(3, 0, "x")
        sheet.set_cell(0, 1, "z")
        assert sheet.occupied_rows() == [(0, {1: "z"}), (3, {0: "x", 1: "y"})]

    def test_first_row_complete(self):
        sheet = Spreadsheet(["A", "B"])
        assert not sheet.first_row_complete()
        sheet.set_cell(0, 0, "x")
        assert not sheet.first_row_complete()
        sheet.set_cell(0, 1, "y")
        assert sheet.first_row_complete()

    def test_first_row_tuple(self):
        sheet = Spreadsheet(["A", "B"])
        sheet.set_cell(0, 1, "y")
        sheet.set_cell(0, 0, "x")
        assert sheet.first_row() == ("x", "y")

    def test_first_row_incomplete_raises_with_missing_names(self):
        sheet = Spreadsheet(["A", "B"])
        sheet.set_cell(0, 0, "x")
        with pytest.raises(SessionError, match="B"):
            sheet.first_row()

    def test_column_index(self):
        sheet = Spreadsheet(["A", "B"])
        assert sheet.column_index("B") == 1
        with pytest.raises(SessionError):
            sheet.column_index("Z")

    def test_sample_count(self):
        sheet = Spreadsheet(["A", "B"])
        sheet.set_cell(0, 0, "x")
        sheet.set_cell(2, 1, "y")
        assert sheet.sample_count() == 2

    def test_describe_renders_grid(self):
        sheet = Spreadsheet(["A", "B"])
        sheet.set_cell(0, 0, "x")
        text = sheet.describe()
        assert "A\tB" in text
        assert "x" in text
