"""The supervisor's respawn backoff is a pure, seedable function.

``backoff_delay`` depends only on (failures, rng), so a chaos test can
seed the jitter and assert the exact respawn schedule instead of
sleeping through random delays.
"""

from __future__ import annotations

import random

from repro.cluster.supervisor import (
    _BACKOFF_BASE_S,
    _BACKOFF_CAP_S,
    backoff_delay,
)


def test_backoff_delay_is_deterministic_under_a_seed():
    a = [backoff_delay(n, random.Random(42)) for n in range(8)]
    b = [backoff_delay(n, random.Random(42)) for n in range(8)]
    assert a == b


def test_backoff_delay_differs_across_seeds():
    assert backoff_delay(3, random.Random(1)) != backoff_delay(
        3, random.Random(2)
    )


def test_backoff_delay_jitter_bounds():
    """Every delay lands in [0.5x, 1.5x] of the exponential schedule."""
    rng = random.Random(7)
    for failures in range(12):
        base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** failures))
        for _ in range(50):
            delay = backoff_delay(failures, rng)
            assert 0.5 * base <= delay <= 1.5 * base


def test_backoff_delay_caps_and_clamps_negative_failures():
    rng = random.Random(0)
    # Far past the cap: the exponential part saturates at the cap.
    assert backoff_delay(100, rng) <= 1.5 * _BACKOFF_CAP_S
    # Negative failure counts behave like zero, not a sub-base delay.
    floor = 0.5 * _BACKOFF_BASE_S
    for _ in range(20):
        assert backoff_delay(-3, rng) >= floor
