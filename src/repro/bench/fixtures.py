"""Shared, cached experiment fixtures.

Benchmarks across files want the same generated databases; building
them once per process keeps ``pytest benchmarks/`` fast.  Scales are
chosen so the whole suite runs in minutes on a laptop while preserving
the effects the paper measures (fan-out, path-count growth, naive
blow-up).
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.imdb import build_imdb
from repro.datasets.workload import TaskSet, build_task_sets
from repro.datasets.yahoo import build_yahoo_movies
from repro.relational.database import Database

#: Default movie count for benchmark databases.
BENCH_SCALE = 200
#: Seeds for the two benchmark sources.
YAHOO_SEED = 7
IMDB_SEED = 11


@lru_cache(maxsize=None)
def bench_databases(scale: int = BENCH_SCALE) -> tuple[Database, Database]:
    """``(yahoo, imdb)`` benchmark databases, built once per process.

    Both come back with their indexes warm: the paper's indexes are
    pre-computed, so no timed search may pay for building them.
    """
    yahoo = build_yahoo_movies(n_movies=scale, seed=YAHOO_SEED)
    imdb = build_imdb(n_movies=scale, seed=IMDB_SEED)
    yahoo.warm_indexes()
    imdb.warm_indexes()
    return yahoo, imdb


@lru_cache(maxsize=None)
def bench_task_sets() -> tuple[TaskSet, TaskSet, TaskSet]:
    """The three synthetic task sets (cached)."""
    return build_task_sets()
