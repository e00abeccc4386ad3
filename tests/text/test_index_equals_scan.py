"""Property test: every index flavour answers exactly what ``contains`` says.

The inverted index skips the per-row re-check for models whose postings
are exact and prefilters by postings for the rest; neither shortcut may
change an answer.  Cells mix text (accents, punctuation, non-ASCII,
empty), ``None``, ints and floats; samples are drawn from the cells'
own words and number spellings as well as from free text, so hits and
misses both occur.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.errors import (
    CaseTokenModel,
    EditDistanceModel,
    ExactModel,
    NumericToleranceModel,
    SubstringModel,
)
from repro.text.inverted_index import ColumnIndex, LinearScanIndex

MODELS = (
    ExactModel(),
    CaseTokenModel(),
    SubstringModel(),
    EditDistanceModel(),
    NumericToleranceModel(relative_tolerance=0.0),
    NumericToleranceModel(relative_tolerance=0.01),
)

# ASCII letters, digits, spaces and punctuation; accented and
# case-folding letters; a ligature, a fullwidth letter, Greek, Cyrillic,
# CJK and a lone combining accent.
free_text = st.text(
    alphabet="abcAB xyz019-.,'!:éÉüñß\ufb01\uff21\u03a9\u0436\u4e2d\u0301",
    max_size=16,
)
cells = st.lists(
    st.one_of(
        free_text,
        st.none(),
        st.integers(min_value=-3000, max_value=3000),
        st.floats(allow_nan=False, width=32),
        st.integers(min_value=-3000, max_value=3000).map(float),
    ),
    max_size=10,
)


def _spellings(cell: object) -> list[str]:
    """Sample strings a user might type for (part of) ``cell``."""
    if cell is None:
        return []
    if isinstance(cell, str):
        return [cell, *cell.split()]
    number = float(cell)
    out = [str(cell), repr(number), f"{number:e}"]
    if number.is_integer():
        out.append(f"0{int(abs(number))}")
    return out


@st.composite
def column_and_sample(draw):
    values = draw(cells)
    pool = [spelling for value in values for spelling in _spellings(value)]
    if pool:
        sample = draw(st.one_of(st.sampled_from(pool), free_text))
    else:
        sample = draw(free_text)
    return values, sample


@settings(max_examples=300)
@given(column_and_sample())
def test_index_equals_scan_equals_contains(case):
    values, sample = case
    inverted = ColumnIndex(values)
    scan = LinearScanIndex(values)
    for model in MODELS:
        expected = [
            row for row, value in enumerate(values) if model.contains(value, sample)
        ]
        assert inverted.search(model, sample) == expected, model
        assert scan.search(model, sample) == expected, model
        assert inverted.contains_any(model, sample) == bool(expected), model
        assert scan.contains_any(model, sample) == bool(expected), model
