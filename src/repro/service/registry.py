"""Process-wide read-only dataset registry and shared LocateSample cache.

Two pieces of cross-session state make the service scale past one user:

* :class:`DatasetRegistry` builds each configured dataset **once**
  (generation plus index warm-up is by far the most expensive step) and
  hands every session the same :class:`~repro.relational.database.Database`
  instance.  :meth:`Database.warm_indexes` runs at load time so the
  shared copy is effectively immutable — concurrent sessions only ever
  perform dict lookups on it.

* :class:`LocationCache` memoises the paper's LocateSample hot path
  across sessions.  Algorithm 1 scans every full-text attribute for a
  sample string; users of a spreadsheet UI keep typing the same values
  ("Avatar", "Tim Burton"…), so one bounded LRU keyed on
  ``(dataset, error model, normalized sample)`` turns the repeated scan
  into a lookup.  Entries are immutable tuples, and the whole cache is
  guarded by one lock — the critical section is a dict move, not the
  scan itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence

from repro.core.location import LocationMap
from repro.exceptions import ServiceConfigError
from repro.obs import get_logger, get_metrics
from repro.relational.database import Database
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy, retry_call
from repro.text.errors import ErrorModel

_log = get_logger(__name__)


def _build_dataset(name: str, scale: int) -> Database:
    """Construct one named dataset (imports deferred: they are heavy)."""
    if name == "running":
        from repro.datasets.running_example import build_running_example

        return build_running_example()
    if name == "yahoo":
        from repro.datasets.yahoo import build_yahoo_movies

        return build_yahoo_movies(n_movies=scale)
    if name == "imdb":
        from repro.datasets.imdb import build_imdb

        return build_imdb(n_movies=scale)
    raise ServiceConfigError(f"unknown dataset {name!r}")


#: Backoff schedule for transient dataset-build failures.
BUILD_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05, max_delay_s=1.0)


class DatasetRegistry:
    """Named, shared, read-only databases, each built exactly once.

    ``builder`` is injectable for tests; the default builds the
    generated sources at ``scale`` movies.  :meth:`get` is thread-safe
    and blocks concurrent callers of the *same* dataset until the first
    build finishes (double-checked under one lock — dataset builds are
    rare, contention on the lock is not a concern).

    Builds are fault-tolerant: transient failures (the
    ``registry.build`` fault point, an I/O hiccup in a generator) are
    retried with jittered backoff (:data:`BUILD_RETRY`).  The service
    preloads every served dataset at startup, so a build that keeps
    failing fails the start, not a request.
    """

    def __init__(
        self,
        *,
        scale: int = 150,
        builder: Callable[[str, int], Database] | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._scale = scale
        self._builder = builder or _build_dataset
        self._lock = threading.Lock()
        self._databases: dict[str, Database] = {}
        self._retry = retry_policy or BUILD_RETRY

    def preload(self, names: Sequence[str]) -> None:
        """Build (and index-warm) every named dataset up-front."""
        for name in names:
            self.get(name)

    def get(self, name: str) -> Database:
        """The shared database for ``name``, built on first request.

        Raises the last build error once the retry policy's attempts
        run out.
        """
        with self._lock:
            db = self._databases.get(name)
            if db is None:
                _log.info("building dataset %r (scale=%d)", name, self._scale)

                def _build() -> Database:
                    fault_point("registry.build")
                    built = self._builder(name, self._scale)
                    built.warm_indexes()
                    return built

                db = retry_call(
                    _build,
                    policy=self._retry,
                    retry_on=(Exception,),
                    name=f"registry.build:{name}",
                )
                self._databases[name] = db
        return db

    def loaded(self) -> tuple[str, ...]:
        """Names of the datasets built so far, sorted."""
        with self._lock:
            return tuple(sorted(self._databases))


def normalize_sample(sample: str) -> str:
    """The cache key form of one sample: whitespace collapsed.

    Deliberately *not* case-folded — the configured error model decides
    case sensitivity, so the key must not merge strings the model could
    distinguish.  Whitespace runs are safe to collapse: every model
    tokenizes on whitespace.
    """
    return " ".join(sample.split())


def _model_key(model: ErrorModel) -> str:
    return f"{type(model).__module__}.{type(model).__qualname__}"


class LocationCache:
    """Bounded cross-session LRU for per-sample location entries.

    The unit of caching is **one sample string**, not the whole sample
    tuple: two sessions searching ``("Avatar", "Tim Burton")`` and
    ``("Avatar", "James Cameron")`` share the ``Avatar`` scan.  Exposes
    the ``location_map(db, samples, model)`` protocol
    :class:`~repro.core.tpw.TPWEngine` accepts.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple[str, str, str], tuple[tuple[str, str], ...]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _lookup(
        self, key: tuple[str, str, str]
    ) -> tuple[tuple[str, str], ...] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def _store(
        self, key: tuple[str, str, str], entry: tuple[tuple[str, str], ...]
    ) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def entries_for(
        self, db: Database, sample: str, model: ErrorModel
    ) -> tuple[tuple[str, str], ...]:
        """Cached ``(relation, attribute)`` occurrence pairs for one sample."""
        key = (db.name, _model_key(model), normalize_sample(sample))
        cached = self._lookup(key)
        metrics = get_metrics()
        if cached is not None:
            metrics.counter("repro.service.location_cache.hits").inc()
            return cached
        metrics.counter("repro.service.location_cache.misses").inc()
        entry = tuple(db.attributes_containing(sample, model))
        self._store(key, entry)
        return entry

    def location_map(
        self, db: Database, samples: Sequence[str], model: ErrorModel
    ) -> LocationMap:
        """Algorithm 1 through the cache (the TPWEngine hook)."""
        entries = {
            key: self.entries_for(db, sample, model)
            for key, sample in enumerate(samples)
        }
        return LocationMap(samples=tuple(samples), entries=entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters for ``/metrics`` and tests."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()
