"""Noisy-containment error models (the ``⊑`` operator of Section 4.1).

The paper "forgives inaccurate samples by allowing them to be noisily
contained" in the source, with the exact semantics delegated to "the
desired error model".  We make that operator a first-class, pluggable
object: an :class:`ErrorModel` decides whether a cell value contains a
sample, scores how well it matches (used by ranking), and tells the
inverted index which tokens it may use to prefilter candidate rows.

Models
------
:class:`ExactModel`
    Byte-for-byte equality after normalization.
:class:`CaseTokenModel` (the default)
    Every token of the sample must appear among the cell's tokens.
    Matches MySQL full-text ``MATCH ... AGAINST`` in boolean mode with
    all-required terms, which is what the paper's prototype used.
:class:`SubstringModel`
    The normalized sample must appear as a substring of the normalized
    cell.
:class:`EditDistanceModel`
    Tokenwise containment where each sample token may differ from some
    cell token by a bounded edit distance (typo tolerance).
:class:`NumericToleranceModel`
    An extension for numeric attributes (Section 7 future work): a
    numeric sample is contained if the cell parses to a number within a
    relative tolerance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.text.normalize import normalize_text
from repro.text.similarity import (
    levenshtein_distance,
    token_set_similarity,
)
from repro.text.tokenize import tokenize, tokenize_value


class ErrorModel(ABC):
    """Decides whether a source cell noisily contains a user sample."""

    #: Short identifier used in configuration and experiment reports.
    name: str = "abstract"

    #: Whether a row's cell holds every token of ``index_tokens(sample)``
    #: exactly when ``contains(cell, sample)`` holds, and an empty token
    #: list means no cell contains the sample.  An index may then answer
    #: from the postings intersection alone and skip ``contains``.  A
    #: subclass that overrides ``contains`` or ``index_tokens`` must
    #: restate it.
    postings_exact: bool = False

    @abstractmethod
    def contains(self, cell: object, sample: str) -> bool:
        """Return ``True`` iff ``cell ⊑ sample`` under this model."""

    def similarity(self, cell: object, sample: str) -> float:
        """Match quality in ``[0, 1]``; only meaningful when ``contains``.

        The default implementation scores by token/edit similarity of
        the stringified cell.
        """
        if cell is None:
            return 0.0
        return token_set_similarity(str(cell), sample)

    def index_tokens(self, sample: str) -> tuple[str, ...]:
        """Tokens whose inverted-index postings may prefilter candidates.

        A row can only satisfy ``contains`` if its cell holds *all* of
        these tokens.  Models that cannot guarantee any token (e.g. an
        edit-distance model) must return ``()``, forcing a scan.
        """
        return tokenize(sample)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class ExactModel(ErrorModel):
    """Equality after text normalization.

    The cell is rendered as the index tokenizes it
    (:func:`~repro.text.tokenize.tokenize_value`), so a float cell
    storing ``1999.0`` equals the sample ``1999``, not ``1999.0``.
    """

    name = "exact"

    def contains(self, cell: object, sample: str) -> bool:
        if cell is None:
            return False
        return " ".join(tokenize_value(cell)) == normalize_text(sample)

    def similarity(self, cell: object, sample: str) -> float:
        return 1.0 if self.contains(cell, sample) else 0.0


class CaseTokenModel(ErrorModel):
    """All sample tokens must appear among the cell's tokens.

    This is the library default and mirrors the boolean-mode full-text
    search the paper's prototype ran against MySQL.  Its postings are
    exact: the index and ``contains`` tokenize cells and samples alike,
    so the postings intersection of the sample's tokens is the answer.
    """

    name = "token"
    postings_exact = True

    def contains(self, cell: object, sample: str) -> bool:
        sample_tokens = tokenize(sample)
        if not sample_tokens:
            return False
        cell_tokens = set(tokenize_value(cell))
        return all(token in cell_tokens for token in sample_tokens)


class SubstringModel(ErrorModel):
    """The normalized sample is a substring of the normalized cell."""

    name = "substring"

    def contains(self, cell: object, sample: str) -> bool:
        sample_norm = normalize_text(sample)
        if not sample_norm:
            return False
        if cell is None:
            return False
        return sample_norm in normalize_text(str(cell))

    def index_tokens(self, sample: str) -> tuple[str, ...]:
        # A sample token may match as a substring of a *different* cell
        # token ("light" inside "Lightstorm"), so posting lists cannot
        # prefilter candidates — substring search must scan.
        return ()


@dataclass(frozen=True)
class EditDistanceModel(ErrorModel):
    """Typo-tolerant tokenwise containment.

    Every sample token must be within ``max_distance`` edits of some
    cell token.  Tokens shorter than ``min_fuzzy_length`` must match
    exactly (one-edit tolerance on two-letter words matches almost
    anything).
    """

    max_distance: int = 1
    min_fuzzy_length: int = 4
    name: str = "edit"

    def __post_init__(self) -> None:
        if self.max_distance < 0:
            raise ValueError("max_distance must be >= 0")

    def _token_matches(self, sample_token: str, cell_tokens: set[str]) -> bool:
        if sample_token in cell_tokens:
            return True
        if len(sample_token) < self.min_fuzzy_length:
            return False
        return any(
            levenshtein_distance(sample_token, cell_token, cap=self.max_distance)
            <= self.max_distance
            for cell_token in cell_tokens
        )

    def contains(self, cell: object, sample: str) -> bool:
        sample_tokens = tokenize(sample)
        if not sample_tokens:
            return False
        cell_tokens = set(tokenize_value(cell))
        if not cell_tokens:
            return False
        return all(self._token_matches(token, cell_tokens) for token in sample_tokens)

    def index_tokens(self, sample: str) -> tuple[str, ...]:
        # A fuzzy token may match a cell token that differs from it, so
        # postings cannot prefilter; only short (exact-match) tokens can.
        return tuple(
            token for token in tokenize(sample) if len(token) < self.min_fuzzy_length
        )


@dataclass(frozen=True)
class NumericToleranceModel(ErrorModel):
    """Containment for numeric samples within a relative tolerance.

    Falls back to token containment for non-numeric samples so that it
    can serve as a drop-in default on mixed-type columns.
    """

    relative_tolerance: float = 0.0
    name: str = "numeric"

    def __post_init__(self) -> None:
        if self.relative_tolerance < 0:
            raise ValueError("relative_tolerance must be >= 0")

    @staticmethod
    def _parse(value: object) -> float | None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                return None
        return None

    def contains(self, cell: object, sample: str) -> bool:
        sample_number = self._parse(sample)
        if sample_number is None:
            return CaseTokenModel().contains(cell, sample)
        cell_number = self._parse(cell)
        if cell_number is None:
            return False
        allowance = abs(sample_number) * self.relative_tolerance
        return abs(cell_number - sample_number) <= allowance

    def similarity(self, cell: object, sample: str) -> float:
        sample_number = self._parse(sample)
        cell_number = self._parse(cell)
        if sample_number is None or cell_number is None:
            return super().similarity(cell, sample)
        if sample_number == cell_number:
            return 1.0
        denominator = max(abs(sample_number), abs(cell_number), 1e-12)
        return max(0.0, 1.0 - abs(cell_number - sample_number) / denominator)

    def index_tokens(self, sample: str) -> tuple[str, ...]:
        # A numeric sample matches by value, and equal values can share
        # no token ("1999.0" vs 1999, "1.9995e3" vs 1999.5), so it scans
        # at any tolerance.
        if self._parse(sample) is not None:
            return ()
        return tokenize(sample)


def default_error_model() -> ErrorModel:
    """The error model used throughout the paper's experiments."""
    return CaseTokenModel()
