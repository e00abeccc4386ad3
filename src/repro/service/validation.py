"""Request validation, error statuses and route labels shared by the
service and the cluster coordinator.

Both front ends turn a malformed payload into a 400 with a readable
message: handlers raise :class:`BadRequest`, and the shared request
frame maps it, like every other :class:`~repro.exceptions.ReproError`,
to a status with :func:`error_response`.  Both label each request with
:func:`route_template`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exceptions import (
    DeadlineExceeded,
    ServiceOverloadedError,
    ServiceUnavailableError,
    UnknownSessionError,
)
from repro.service.retry_after import retry_after_header

#: ``(status, body, extra headers)`` — a dict is JSON-encoded by the
#: transport, a str is served verbatim as ``text/plain`` (the
#: Prometheus exposition and folded profiles), ``None`` has no body.
Response = tuple[int, "dict[str, Any] | str | None", "dict[str, str]"]


class BadRequest(Exception):
    """A malformed payload; becomes a 400 with this message."""


def require(body: dict[str, Any] | None, key: str) -> Any:
    """``body[key]``, or :class:`BadRequest` when the field is missing."""
    if not isinstance(body, dict) or key not in body:
        raise BadRequest(f"missing required field {key!r}")
    return body[key]


def as_int(value: Any, name: str) -> int:
    """``int(value)``, or :class:`BadRequest` naming the field; a JSON
    ``true``/``false`` is refused, not read as 1/0."""
    if not isinstance(value, bool):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise BadRequest(f"{name} must be an integer")


def cell_input(
    body: dict[str, Any] | None, columns: Sequence[str]
) -> tuple[int, int, str]:
    """``(row, column, value)`` of a ``POST /sessions/{id}/cells`` body.

    A ``column_name`` is looked up in ``columns`` when ``column`` is
    absent.  ``value`` must be a string or a number: the ``str()`` of
    ``null``, a boolean, a list or an object would become a sample.
    """
    row = as_int(require(body, "row"), "row")
    value = require(body, "value")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise BadRequest("value must be a string or a number")
    column = body.get("column")
    if column is not None:
        return row, as_int(column, "column"), str(value)
    if body.get("column_name") is None:
        raise BadRequest("provide either column or column_name")
    name = str(body["column_name"])
    if name not in columns:
        raise BadRequest(f"unknown column {name!r}")
    return row, columns.index(name), str(value)


def served_dataset(dataset: str, datasets: Sequence[str]) -> str:
    """``dataset`` if it is one of ``datasets``, else :class:`BadRequest`."""
    if dataset not in datasets:
        raise BadRequest(
            f"dataset {dataset!r} is not served (loaded: "
            f"{', '.join(datasets)})"
        )
    return dataset


def column_names(columns: Any) -> Any:
    """``columns`` if it is a non-empty list of non-blank names."""
    if (
        not isinstance(columns, (list, tuple))
        or not columns
        or not all(isinstance(c, str) and c.strip() for c in columns)
    ):
        raise BadRequest("columns must be a non-empty list of names")
    return columns


def irrelevance_policy(body: dict[str, Any] | None) -> str:
    """``body["on_irrelevant"]``, ``"ignore"`` when absent.

    The policy for inputs that match no candidate (see
    :class:`~repro.core.session.MappingSession`): ``"ignore"`` reverts
    them, ``"apply"`` keeps them.  Anything else is a 400.
    """
    policy = (body or {}).get("on_irrelevant", "ignore")
    if policy not in ("ignore", "apply"):
        raise BadRequest("on_irrelevant must be 'ignore' or 'apply'")
    return policy


#: ``/sessions/{id}/<action>`` tails either front end serves.
_SESSION_ACTIONS = frozenset({"cells", "candidates", "explain", "suggest"})

#: Id-free paths either front end serves.
_FIXED_ROUTES = frozenset({
    ("healthz",), ("metrics",), ("sessions",),
    ("debug", "profile"), ("debug", "requests"),
    ("admin", "digest"), ("admin", "repair"), ("admin", "shards"),
})


def route_template(method: str, parts: tuple[str, ...]) -> str:
    """Low-cardinality route label for request metrics, spans and the
    flight recorder.

    Ids collapse to ``{id}`` (``{address}`` for a shard), and any path
    neither front end serves collapses to ``"{method} unmatched"``, so
    outside input cannot grow the metric registry one label at a time.
    """
    n, head = len(parts), parts[:2]
    if parts in _FIXED_ROUTES:
        return f"{method} /{'/'.join(parts)}"
    if parts[:1] == ("sessions",) and (
        n == 2 or (n == 3 and parts[2] in _SESSION_ACTIONS)
    ):
        suffix = f"/{parts[2]}" if n == 3 else ""
        return f"{method} /sessions/{{id}}{suffix}"
    if n == 4 and head == ("admin", "sessions") and parts[3] == "restore":
        return f"{method} /admin/sessions/{{id}}/restore"
    if n == 3 and head == ("admin", "shards"):
        return f"{method} /admin/shards/{{address}}"
    if n == 3 and head == ("debug", "requests"):
        return f"{method} /debug/requests/{{id}}"
    return f"{method} unmatched"


def error_response(error: Exception) -> Response:
    """The response for a request that failed with a known error.

    ``error`` is a :class:`BadRequest` or a
    :class:`~repro.exceptions.ReproError`: an unknown session is a 404,
    a missed deadline a 504, a full queue a 429 and a refusal (shed,
    drain, shard down) a 503.  Those last two carry ``retry_after_s``
    and a ``Retry-After`` header.  Every other error is the caller's
    fault: a 400.  Anything else is a bug, which the shared request
    frame (:class:`~repro.service.frontend.FrontEnd`) answers with a
    500.
    """
    body: dict[str, Any] = {"error": str(error)}
    if isinstance(error, UnknownSessionError):
        return 404, body, {}
    if isinstance(error, DeadlineExceeded):
        return 504, body, {}
    if isinstance(error, ServiceOverloadedError):
        status = 429
    elif isinstance(error, ServiceUnavailableError):
        status = 503
        body["reason"] = error.reason
    else:
        return 400, body, {}
    body["retry_after_s"] = error.retry_after_s
    return status, body, {
        "Retry-After": retry_after_header(error.retry_after_s)
    }
