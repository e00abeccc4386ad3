"""Seeded open-loop arrival schedules."""

from __future__ import annotations

import random


def poisson_arrivals(seed: int, rate_per_s: float, count: int) -> list[float]:
    """``count`` arrival offsets (seconds from 0) of a Poisson process.

    The same ``seed`` always yields the same schedule.  The offsets are
    scaled so the last falls at ``count / rate_per_s``: every seed then
    offers exactly the stated rate, and only the spacing varies.
    """
    if rate_per_s <= 0 or count < 1:
        raise ValueError("need a positive rate and at least one arrival")
    rng = random.Random(seed)
    arrivals: list[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate_per_s)
        arrivals.append(now)
    scale = count / rate_per_s / now
    return [arrival * scale for arrival in arrivals]
