"""Percentiles and the sample-size rule every reported timing obeys."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Most windows :func:`windowed_percentile` splits a run into.
MAX_WINDOWS = 5


class SampleTooSmall(ValueError):
    """A percentile was asked of a sample too small to support it."""


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` (0 < q <= 100) in ``n``."""
    if n < 1:
        raise SampleTooSmall("empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, math.ceil(q / 100 * n))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` rank."""
    return n - rank(n, q)


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample size with ``min_beyond`` samples past ``q``."""
    n = 1
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(
    values: Sequence[float], q: float, *, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank percentile, refusing a sample that cannot support it.

    ``min_beyond`` samples must lie beyond the percentile (the median
    always qualifies once there are ``2 * min_beyond + 1`` values).
    """
    n = len(values)
    if beyond(n, q) < min_beyond:
        raise SampleTooSmall(
            f"p{q:g} of {n} samples leaves {beyond(n, q)} beyond it; "
            f"need {min_beyond} (at least {min_samples(q, min_beyond)} "
            f"samples)"
        )
    return sorted(values)[rank(n, q) - 1]


def windowed_percentile(
    values: Sequence[float], q: float, *, max_windows: int = MAX_WINDOWS
) -> float:
    """Median over consecutive windows of each window's ``q`` percentile.

    ``values`` are in the order they were measured.  The run is cut into
    as many equal windows as hold ``MIN_BEYOND`` samples beyond the
    percentile each, at most ``max_windows``; a burst of interference
    from outside the program then spoils one window's figure instead of
    the run's.  With room for one window this is :func:`percentile`.
    """
    windows = min(max_windows, len(values) // min_samples(q))
    if windows < 1:
        return percentile(values, q)  # raises SampleTooSmall
    size = len(values) // windows
    return statistics.median(
        percentile(values[index * size:(index + 1) * size], q)
        for index in range(windows)
    )


def windowed_mean(
    values: Sequence[float], *, max_windows: int = MAX_WINDOWS
) -> float:
    """Median over up to ``max_windows`` consecutive windows of their means.

    ``values`` are in the order they were measured; each window holds at
    least ``2 * MIN_BEYOND`` of them.  Like :func:`windowed_percentile`,
    a burst of outside load spoils one window's mean, not the run's.
    """
    windows = max(1, min(max_windows, len(values) // (2 * MIN_BEYOND)))
    size = len(values) // windows
    return statistics.median(
        mean(values[index * size:(index + 1) * size]) for index in range(windows)
    )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample."""
    return statistics.fmean(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)
