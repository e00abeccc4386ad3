"""Request validation and route labels shared by the service and the
cluster coordinator.

Both front ends turn a malformed payload into a 400 with a readable
message: handlers raise :class:`BadRequest`, and the transport-level
``handle`` maps it to the status.  Both label each request with
:func:`route_template`.
"""

from __future__ import annotations

from typing import Any, Sequence


class BadRequest(Exception):
    """A malformed payload; becomes a 400 with this message."""


def require(body: dict[str, Any] | None, key: str) -> Any:
    """``body[key]``, or :class:`BadRequest` when the field is missing."""
    if not isinstance(body, dict) or key not in body:
        raise BadRequest(f"missing required field {key!r}")
    return body[key]


def as_int(value: Any, name: str) -> int:
    """``int(value)``, or :class:`BadRequest` naming the field."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be an integer") from None


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


#: ``/sessions/{id}/<action>`` tails either front end serves.
_SESSION_ACTIONS = frozenset({"cells", "candidates", "explain", "suggest"})

#: Id-free paths either front end serves.
_FIXED_ROUTES = frozenset({
    ("healthz",), ("metrics",), ("sessions",), ("locate",),
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
