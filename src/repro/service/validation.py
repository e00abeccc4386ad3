"""Request validation shared by the service and the cluster coordinator.

Both front ends turn a malformed payload into a 400 with a readable
message: handlers raise :class:`BadRequest`, and the transport-level
``handle`` maps it to the status.
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
