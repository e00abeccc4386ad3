"""Exception hierarchy for the mweaver-repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses are
grouped by subsystem: schema/catalog problems, query execution problems,
search-budget exhaustion, and interactive-session misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class SchemaError(ReproError):
    """A schema definition is inconsistent.

    Raised for duplicate relation or attribute names, foreign keys that
    reference unknown relations/attributes, arity mismatches between a
    foreign key's columns and the referenced key, and similar catalog
    violations.
    """


class UnknownRelationError(SchemaError):
    """A relation name was looked up but is not in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute name was looked up but is not in its relation."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"unknown attribute: {relation!r}.{attribute!r}")
        self.relation = relation
        self.attribute = attribute


class IntegrityError(ReproError):
    """A data-level constraint was violated while loading rows.

    Covers duplicate primary keys, rows of the wrong arity, and foreign
    key values that do not resolve to a referenced row (when referential
    checking is enabled).
    """


class QueryError(ReproError):
    """A query object is malformed or references unknown catalog items."""


class SearchBudgetExceeded(ReproError):
    """A search exceeded its configured budget.

    The paper's naive baseline exhausts memory for target sizes beyond
    four; our harness converts that failure mode into this explicit,
    catchable error carrying the budget that was exceeded.

    The keyword-only fields enrich the error for ``explain`` and the
    degraded-result payload: ``phase`` names the search phase that
    tripped, ``elapsed_s`` the wall time spent, and ``explored`` counts
    whatever the phase had examined when it gave up (walks, mapping
    paths, woven paths…).  They default to empty so the historic
    ``SearchBudgetExceeded(what, limit)`` call sites keep working.
    """

    def __init__(
        self,
        what: str,
        limit: int,
        *,
        phase: str | None = None,
        elapsed_s: float | None = None,
        explored: dict[str, int] | None = None,
    ) -> None:
        message = f"search budget exceeded: {what} > {limit}"
        if phase is not None:
            message += f" (phase={phase}"
            if elapsed_s is not None:
                message += f", elapsed={elapsed_s:.3f}s"
            message += ")"
        super().__init__(message)
        self.what = what
        self.limit = limit
        self.phase = phase
        self.elapsed_s = elapsed_s
        self.explored = dict(explored or {})

    def context(self) -> dict[str, object]:
        """JSON-ready context for explain reports and error payloads."""
        payload: dict[str, object] = {"what": self.what, "limit": self.limit}
        if self.phase is not None:
            payload["phase"] = self.phase
        if self.elapsed_s is not None:
            payload["elapsed_s"] = round(self.elapsed_s, 6)
        if self.explored:
            payload["explored"] = dict(self.explored)
        return payload


class BackendError(ReproError):
    """A storage backend failed beneath the mapping engine.

    Wraps residual :class:`sqlite3.OperationalError` (and friends) that
    survive the retry layer, so callers deal in typed repro errors
    instead of driver exceptions.  ``operation`` names the backend step
    (``connect``, ``execute``…); ``cause`` keeps the original error.
    """

    def __init__(self, operation: str, cause: BaseException) -> None:
        super().__init__(f"backend {operation} failed: {cause}")
        self.operation = operation
        self.cause = cause


class SessionError(ReproError):
    """The interactive mapping session was driven incorrectly.

    For instance: submitting the first row while some cells are still
    empty, or addressing a spreadsheet column that does not exist.
    """


class DatasetError(ReproError):
    """A synthetic dataset generator was configured inconsistently."""


class ServiceError(ReproError):
    """Base class for mapping-service failures (:mod:`repro.service`)."""


class ServiceConfigError(ServiceError):
    """The service was configured inconsistently (unknown dataset,
    non-positive pool sizes, a TTL shorter than the request timeout…).

    The ``mweaver serve`` subcommand maps this to exit code 2.
    """


class ServiceOverloadedError(ServiceError):
    """The service's bounded work queue (or session table) is full.

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` hint; ``retry_after_s`` carries the suggested wait.
    """

    def __init__(self, what: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(f"service overloaded: {what}")
        self.what = what
        self.retry_after_s = retry_after_s


class DeadlineExceeded(ServiceError):
    """A service request missed its deadline before/while executing."""

    def __init__(self, what: str, deadline_s: float) -> None:
        super().__init__(f"deadline exceeded after {deadline_s:g}s: {what}")
        self.what = what
        self.deadline_s = deadline_s


class ServiceUnavailableError(ServiceError):
    """The service refuses the request but the process is healthy.

    Raised on the fail-fast paths that must *not* look like crashes:
    admission-control load shedding (the estimated queue wait exceeds
    the request deadline) and a draining server (SIGTERM received, no
    new work accepted).  The HTTP layer maps this to ``503 Service
    Unavailable`` with a ``Retry-After`` hint; ``reason`` is a
    low-cardinality label (``shed`` / ``drain``, and ``shard_down`` on
    the cluster coordinator) for metrics and clients.
    """

    def __init__(
        self,
        what: str,
        *,
        retry_after_s: float = 1.0,
        reason: str = "unavailable",
    ) -> None:
        super().__init__(f"service unavailable ({reason}): {what}")
        self.what = what
        self.retry_after_s = retry_after_s
        self.reason = reason


class ShardUnavailableError(ServiceError):
    """A cluster shard could not be reached (or answered garbage).

    Internal to :mod:`repro.cluster`: the coordinator's shard client
    raises this on connection failures, timeouts and unparseable
    replies.  The coordinator treats it as a routing signal — count a
    failure against the shard, try the next replica — and only surfaces a
    :class:`ServiceUnavailableError` (``reason="shard_down"``) once
    every replica of the session is exhausted.
    """

    def __init__(self, shard: str, cause: BaseException | str) -> None:
        super().__init__(f"shard {shard} unavailable: {cause}")
        self.shard = shard
        self.cause = cause


class UnknownSessionError(ServiceError):
    """A session id was addressed but is not (or no longer) live.

    Raised both for ids that never existed and for sessions the
    TTL/idle sweeper already evicted; the HTTP layer maps it to 404.
    """

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session: {session_id!r}")
        self.session_id = session_id
