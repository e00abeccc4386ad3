"""Crash-safe session journaling for the mapping service.

A session's durable state is exactly its spreadsheet inputs (see
:mod:`repro.core.persistence`), so the journal is an **append-only
JSON-lines log of cell inputs** plus session create/delete markers.
``mweaver serve --journal-dir DIR`` and the cluster coordinator
(``mweaver cluster --journal-dir DIR``) append one record per applied
mutation; shards keep none, since the coordinator reseats them.  After
a crash (or a plain restart) the new process replays the journal
through :meth:`SessionJournal.recover` and restores every live session —
same ids, same grids (a served session also recomputes its candidates
by re-running the real search, so it is indistinguishable from a live
one).

Record shapes (one JSON object per line)::

    {"op": "create", "session_id": ..., "dataset": ...,
     "columns": [...], "on_irrelevant": ..., "ts": ...}
    {"op": "cell", "session_id": ..., "row": 0, "column": 1,
     "value": "James Cameron", "ts": ...}
    {"op": "delete", "session_id": ..., "ts": ...}

Durability policy: every append is flushed to the OS (``flush``); with
``fsync=True`` it is additionally fsynced, trading latency for
power-loss safety.  A torn final line (the classic ``kill -9``
mid-write artifact) is tolerated: replay skips unparsable lines and
keeps everything before them.

On recovery the journal is **compacted**: the restored live state is
rewritten as a fresh create+cells prefix, so the file does not grow
without bound across restarts.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import get_logger, get_metrics
from repro.resilience.faults import fault_point

_log = get_logger(__name__)

#: Journal format version, embedded in every record.
_FORMAT_VERSION = 1


def grid_digest(cells: "dict[tuple[int, int], str]") -> str:
    """Content hash of a session grid (anti-entropy comparison key).

    BLAKE2b over the sorted ``(row, column, value)`` triples, with the
    same normalization the spreadsheet applies (values stripped, empty
    cells absent) — so a coordinator's journaled view and a shard's
    live spreadsheet hash identically exactly when they hold the same
    samples, independent of insertion order or process.
    """
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for (row, column), value in sorted(cells.items()):
        stripped = str(value).strip()
        if not stripped:
            continue
        digest.update(f"{row}\x1f{column}\x1f{stripped}\x1e".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class JournaledSession:
    """One live session reconstructed from the journal."""

    session_id: str
    dataset: str
    columns: list[str]
    on_irrelevant: str = "ignore"
    #: Applied cell inputs in arrival order: ``(row, column, value)``.
    cells: list[tuple[int, int, str]] = field(default_factory=list)

    def grid(self) -> dict[tuple[int, int], str]:
        """The final grid: last write per cell wins."""
        cells: dict[tuple[int, int], str] = {}
        for row, column, value in self.cells:
            cells[(row, column)] = value
        return cells


def replay_journal(path: str | Path) -> dict[str, JournaledSession]:
    """Replay a journal file into the live sessions it describes.

    Returns ``session_id -> JournaledSession`` for every session that
    was created and not deleted.  Unparsable lines (torn tail writes)
    and records for unknown sessions are skipped with a warning count
    rather than failing the whole recovery.
    """
    path = Path(path)
    live: dict[str, JournaledSession] = {}
    skipped = 0
    if not path.exists():
        return live
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            op = record.get("op")
            session_id = record.get("session_id")
            if op == "create" and isinstance(session_id, str):
                live[session_id] = JournaledSession(
                    session_id=session_id,
                    dataset=str(record.get("dataset", "")),
                    columns=[str(c) for c in record.get("columns", [])],
                    on_irrelevant=str(record.get("on_irrelevant", "ignore")),
                )
            elif op == "cell" and session_id in live:
                try:
                    live[session_id].cells.append(
                        (
                            int(record["row"]),
                            int(record["column"]),
                            str(record["value"]),
                        )
                    )
                except (KeyError, TypeError, ValueError):
                    skipped += 1
            elif op == "delete" and isinstance(session_id, str):
                live.pop(session_id, None)
            else:
                skipped += 1
    if skipped:
        _log.warning(
            "journal %s: skipped %d unparsable/orphan record(s)",
            path, skipped,
        )
    return live


def _create_record(
    session_id: str, dataset: str, columns: list[str], on_irrelevant: str
) -> dict[str, Any]:
    return {
        "op": "create",
        "session_id": session_id,
        "dataset": dataset,
        "columns": list(columns),
        "on_irrelevant": on_irrelevant,
    }


def _cell_record(
    session_id: str, row: int, column: int, value: str
) -> dict[str, Any]:
    return {
        "op": "cell",
        "session_id": session_id,
        "row": row,
        "column": column,
        "value": value,
    }


def _line(record: dict[str, Any]) -> str:
    """``record`` stamped with time and format version, as one line."""
    record["ts"] = time.time()
    record["v"] = _FORMAT_VERSION
    return json.dumps(record, separators=(",", ":")) + "\n"


class SessionJournal:
    """Append-only journal of session mutations, one JSON per line.

    Thread-safe (one lock around the write path — appends are tiny and
    rare relative to searches).  ``fsync=True`` makes every append
    durable against power loss, not just process death.
    """

    def __init__(
        self, path: str | Path, *, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle: io.TextIOWrapper = self.path.open(
            "a", encoding="utf-8"
        )
        self.appended = 0

    # -- the write path ------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        line = _line(record)
        with self._lock:
            fault_point("journal.append")
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self.appended += 1
        get_metrics().counter("repro.journal.appends").inc()

    def record_create(
        self,
        session_id: str,
        dataset: str,
        columns: list[str],
        *,
        on_irrelevant: str = "ignore",
    ) -> None:
        """Journal a session creation."""
        self._append(
            _create_record(session_id, dataset, columns, on_irrelevant)
        )

    def record_cell(
        self, session_id: str, row: int, column: int, value: str
    ) -> None:
        """Journal one applied cell input."""
        self._append(_cell_record(session_id, row, column, value))

    def record_delete(self, session_id: str) -> None:
        """Journal a session deletion (explicit or TTL eviction)."""
        self._append({"op": "delete", "session_id": session_id})

    # -- maintenance ---------------------------------------------------

    def compact(self, live: dict[str, JournaledSession]) -> None:
        """Rewrite the journal so it holds only the live state.

        Called after recovery: the restored sessions become a fresh
        create+cells prefix and everything else (deleted sessions,
        superseded cell writes, torn lines) is dropped.  The rewrite
        goes through a temp file + ``os.replace`` so a crash mid-compact
        leaves either the old or the new journal, never a torn one.
        """
        with self._lock:
            temp = self.path.with_suffix(self.path.suffix + ".compact")
            with temp.open("w", encoding="utf-8") as handle:
                for session in live.values():
                    handle.write(_line(_create_record(
                        session.session_id, session.dataset,
                        session.columns, session.on_irrelevant,
                    )))
                    # Last-write-wins: superseded cell writes are dropped.
                    for (row, column), value in sorted(
                        session.grid().items()
                    ):
                        handle.write(_line(_cell_record(
                            session.session_id, row, column, value
                        )))
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(temp, self.path)
            self._handle = self.path.open("a", encoding="utf-8")
        _log.info(
            "journal compacted: %d live session(s) at %s",
            len(live), self.path,
        )

    def recover(
        self,
        datasets: Sequence[str],
        rebuild: Callable[[JournaledSession], Any],
    ) -> int:
        """Replay the journal through ``rebuild``; return how many recovered.

        The one recovery routine of ``mweaver serve`` and the cluster
        coordinator: each live session whose dataset is still in
        ``datasets`` is handed to the app's ``rebuild`` callback.
        Sessions recover independently — an unserved dataset or a
        failing rebuild skips that session with a warning instead of
        failing startup.  The journal is then compacted to exactly the
        recovered sessions.
        """
        replayed = replay_journal(self.path)
        recovered: dict[str, JournaledSession] = {}
        for session_id, journaled in replayed.items():
            try:
                if journaled.dataset not in datasets:
                    raise ValueError(
                        f"dataset {journaled.dataset!r} is not served"
                    )
                rebuild(journaled)
                recovered[session_id] = journaled
            except Exception as error:  # noqa: BLE001 - isolate per session
                _log.warning(
                    "journal recovery skipped session %s: %s",
                    session_id, error,
                )
        self.compact(recovered)
        if replayed:
            _log.info(
                "journal recovery: restored %d of %d session(s) from %s",
                len(recovered), len(replayed), self.path,
            )
        return len(recovered)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

