"""Per-column inverted indexes.

Algorithm 1 of the paper locates sample occurrences with "a standard
full-text search on an individual column which has a pre-computed
inverted index".  :class:`ColumnIndex` is that index: token → sorted
row-id postings, plus a verification pass through the active
:class:`~repro.text.errors.ErrorModel`.  :class:`LinearScanIndex` is the
no-index baseline used by the index ablation benchmark.

The verification pass runs only where the postings can over-approximate.
A model whose ``postings_exact`` is set (the default
:class:`~repro.text.errors.CaseTokenModel`) tokenizes samples exactly as
the index tokenizes cells, so the postings intersection of the sample's
tokens *is* the answer, as in the MySQL boolean-mode full-text search the
paper's prototype used: no cell is re-read.  Every other model
(exact, substring, edit distance, numeric) re-checks each candidate with
``contains``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from time import perf_counter

from repro.obs import get_metrics
from repro.resilience.faults import fault_point, partial_point
from repro.text.errors import ErrorModel
from repro.text.tokenize import tokenize_value


def _record_probe(index: str, seconds: float) -> None:
    metrics = get_metrics()
    metrics.counter("repro.index.probes", index=index).inc()
    metrics.histogram("repro.index.probe_seconds", index=index).observe(seconds)


class ColumnIndex:
    """Inverted index over one column of one relation.

    Parameters
    ----------
    values:
        The column's cell values, positionally indexed by row id.
    """

    __slots__ = ("_values", "_postings")

    def __init__(self, values: Sequence[object]) -> None:
        self._values = values
        postings: dict[str, list[int]] = {}
        for row_id, value in enumerate(values):
            for token in set(tokenize_value(value)):
                postings.setdefault(token, []).append(row_id)
        self._postings = postings

    def __len__(self) -> int:
        return len(self._values)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens indexed."""
        return len(self._postings)

    def postings(self, token: str) -> Sequence[int]:
        """Row ids whose cell contains ``token`` (ascending order)."""
        return self._postings.get(token, ())

    def _intersect(self, tokens: Iterable[str]) -> list[int]:
        """Ascending row ids whose cell holds every one of ``tokens``."""
        lists = []
        for token in set(tokens):
            posting = self._postings.get(token)
            if posting is None:
                return []
            lists.append(posting)
        if not lists:
            return []
        if len(lists) == 1:
            return list(lists[0])
        lists.sort(key=len)
        result = set(lists[0])
        for posting in lists[1:]:
            result.intersection_update(posting)
            if not result:
                return []
        return sorted(result)

    def candidate_rows(self, model: ErrorModel, sample: str) -> Iterable[int]:
        """Rows that *may* contain ``sample`` under ``model``.

        Intersects the postings of the model's required index tokens.
        If the model cannot name any required token, every row is a
        candidate (the verification pass below filters).
        """
        tokens = model.index_tokens(sample)
        if not tokens:
            return range(len(self._values))
        return self._intersect(tokens)

    def _search(self, model: ErrorModel, sample: str) -> list[int]:
        if model.postings_exact:
            return self._intersect(model.index_tokens(sample))
        return [
            row_id
            for row_id in self.candidate_rows(model, sample)
            if model.contains(self._values[row_id], sample)
        ]

    def search(self, model: ErrorModel, sample: str) -> list[int]:
        """All row ids whose cell contains ``sample`` under ``model``.

        For a model with ``postings_exact`` the postings intersection is
        the answer and no cell is re-read; for every other model the
        candidates it yields are verified with ``model.contains``.  The
        result is exact for any model.

        Carries the ``index.search`` fault point: chaos tests can make
        the probe raise, stall, or drop rows (``partial`` mode — a
        flaky secondary index returning an incomplete posting list).
        """
        fault_point("index.search")
        if not get_metrics().enabled:
            return partial_point("index.search", self._search(model, sample))
        start = perf_counter()
        result = self._search(model, sample)
        _record_probe("inverted", perf_counter() - start)
        return partial_point("index.search", result)

    def contains_any(self, model: ErrorModel, sample: str) -> bool:
        """Whether at least one row contains ``sample`` (early exit)."""
        if model.postings_exact:
            return bool(self._intersect(model.index_tokens(sample)))
        for row_id in self.candidate_rows(model, sample):
            if model.contains(self._values[row_id], sample):
                return True
        return False


class LinearScanIndex:
    """A drop-in replacement for :class:`ColumnIndex` with no index.

    Exists to quantify what the inverted index buys (index ablation
    benchmark); every search is a full column scan.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[object]) -> None:
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def vocabulary_size(self) -> int:
        """Always zero: nothing is indexed."""
        return 0

    def postings(self, token: str) -> Sequence[int]:
        """Unsupported — a scan index has no posting lists."""
        raise NotImplementedError("LinearScanIndex has no postings")

    def candidate_rows(self, model: ErrorModel, sample: str) -> Iterable[int]:
        """Every row is a candidate (no prefiltering)."""
        return range(len(self._values))

    def _search(self, model: ErrorModel, sample: str) -> list[int]:
        return [
            row_id
            for row_id, value in enumerate(self._values)
            if model.contains(value, sample)
        ]

    def search(self, model: ErrorModel, sample: str) -> list[int]:
        """All row ids containing ``sample``, found by full scan.

        Shares the ``index.search`` fault point with the inverted
        flavour so the ablation benchmark is chaos-testable too.
        """
        fault_point("index.search")
        if not get_metrics().enabled:
            return partial_point("index.search", self._search(model, sample))
        start = perf_counter()
        result = self._search(model, sample)
        _record_probe("scan", perf_counter() - start)
        return partial_point("index.search", result)

    def contains_any(self, model: ErrorModel, sample: str) -> bool:
        """Whether any row contains ``sample`` (scan with early exit)."""
        return any(model.contains(value, sample) for value in self._values)


def build_column_index(
    values: Sequence[object], *, use_inverted: bool = True
) -> ColumnIndex | LinearScanIndex:
    """Build the configured index flavour over ``values``."""
    if use_inverted:
        return ColumnIndex(values)
    return LinearScanIndex(values)
