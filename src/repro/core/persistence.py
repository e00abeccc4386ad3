"""Saving and restoring mapping sessions.

A session's durable state is exactly its spreadsheet (plus the policy
knob): candidates, warnings and timings are all derived by replaying
the inputs against the source.  Serialising the grid keeps the format
trivial and forward-compatible, and restoring re-runs the real search
and pruning so a loaded session is indistinguishable from one built
live.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import TPWConfig
from repro.core.session import MappingSession
from repro.exceptions import SessionError
from repro.relational.database import Database
from repro.text.errors import ErrorModel

_FORMAT_VERSION = 1


def session_to_dict(session: MappingSession) -> dict:
    """The session's durable state as a JSON-ready dictionary."""
    sheet = session.spreadsheet
    cells = []
    for row, samples in sheet.occupied_rows():
        for column, content in samples.items():
            cells.append({"row": row, "column": column, "content": content})
    return {
        "version": _FORMAT_VERSION,
        "source": session.db.name,
        "columns": list(sheet.columns),
        "on_irrelevant": session.on_irrelevant,
        "cells": cells,
    }


def save_session(session: MappingSession, path: str | Path) -> None:
    """Write the session's state to ``path`` as JSON."""
    payload = session_to_dict(session)
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def session_from_dict(
    db: Database,
    payload: dict,
    *,
    config: TPWConfig | None = None,
    model: ErrorModel | None = None,
) -> MappingSession:
    """Rebuild a session by replaying the saved inputs against ``db``.

    The grid is restored wholesale and the search/pruning replay once
    (per-cell input policies already ran when the session was live, so
    re-applying them here could diverge from the saved state).  Raises
    :class:`~repro.exceptions.SessionError` on version or content
    mismatches.
    """
    if payload.get("version") != _FORMAT_VERSION:
        raise SessionError(
            f"unsupported session format version {payload.get('version')!r}"
        )
    columns = payload.get("columns") or []
    session = MappingSession(
        db,
        columns,
        config=config,
        model=model,
        on_irrelevant=payload.get("on_irrelevant", "ignore"),
    )
    session.load_cells(
        {
            (cell["row"], cell["column"]): cell["content"]
            for cell in payload.get("cells", ())
        }
    )
    return session


def load_session(
    db: Database,
    path: str | Path,
    *,
    config: TPWConfig | None = None,
    model: ErrorModel | None = None,
) -> MappingSession:
    """Read a session file and replay it against ``db``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return session_from_dict(db, payload, config=config, model=model)
