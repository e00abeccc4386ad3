"""The cluster reconciler: one level-triggered loop keeps replicas in line.

*Desired* state is the ring's replica set of each session.  *Observed*
state is :attr:`ClusterSession.synced <repro.cluster.coordinator.
ClusterSession.synced>`, the shards known to hold the session's current
grid.  The hot path touches one shard and only marks sessions dirty:

* an accepted write shrinks ``synced`` to the primary;
* a failover, journal recovery and a membership change (:meth:`mark_all`)
  mark sessions whose placement may have moved;
* a digest scan that finds a replica missing or divergent removes it
  from ``synced``.

Every :data:`PASS_INTERVAL_S` one pass reconciles dirty sessions in
FIFO order under :data:`PASS_MAX_WORK` ships; sessions the budget does
not reach stay dirty, in place, for the next pass.  Reconciling a
session holds its lock for the whole operation, the rule ``put_cell``
follows: ship the restore payload to every desired member outside
``synced`` whose last probe or call did not fail, then move the
placement onto members that now hold the grid.  No write is accepted between a ship and a switch, so none is
lost.  A restore rebuilds the grid with the normalization ``put_cell``
applies, so after a ship the shard's ``/admin/digest`` equals the
coordinator's :func:`~repro.resilience.journal.grid_digest`.

Every ``repair_interval_s`` (0 = never; passes still run) the same
thread fetches ``GET /admin/digest`` once per live shard and marks the
sessions whose replicas are missing or divergent: anti-entropy for what
no event reports, such as a shard that restarted empty.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import ShardUnavailableError
from repro.obs import get_logger, get_metrics
from repro.resilience.journal import grid_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import CoordinatorApp

_log = get_logger(__name__)

#: Seconds between reconcile passes.  Writes only mark sessions dirty,
#: so a session written several times (or deleted) within one interval
#: costs one ship (or none).
PASS_INTERVAL_S = 0.2
#: Restore ships one pass may make; the rest wait for the next pass.
PASS_MAX_WORK = 64


@dataclass
class RepairScan:
    """What one digest scan saw, and the reseats of the pass after it."""

    #: Sessions examined.
    sessions: int = 0
    #: (session, shard) pairs compared: the ring replica set plus the
    #: current placement.
    pairs: int = 0
    #: Pairs where the shard did not hold the session at all.
    missing: int = 0
    #: Pairs where the shard's grid digest did not match.
    divergent: int = 0
    #: Pairs that could not be checked: the shard is down or its digest
    #: fetch failed.
    unverified: int = 0
    #: Missing or divergent pairs the following pass shipped to.
    reseated: int = 0
    #: Wall seconds the scan and its pass took.
    elapsed_s: float = 0.0

    @property
    def converged(self) -> bool:
        """Every pair was checked and held the coordinator's grid."""
        return not (self.missing or self.divergent or self.unverified)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering for ``/healthz`` and ``/admin/repair``."""
        return {
            **asdict(self),
            "elapsed_s": round(self.elapsed_s, 6),
            "converged": self.converged,
        }


class Reconciler:
    """The coordinator's one replica-maintenance thread."""

    def __init__(
        self, coordinator: "CoordinatorApp", *, repair_interval_s: float
    ) -> None:
        self._coordinator = coordinator
        self.repair_interval_s = repair_interval_s
        #: Dirty session ids in FIFO order (a dict used as ordered set).
        self._dirty: dict[str, None] = {}
        self._lock = threading.Lock()
        #: One pass or scan at a time (loop thread vs ``/admin/repair``).
        self._run_lock = threading.Lock()
        #: (session, shard) pairs a scan found missing or divergent and
        #: no pass has shipped to yet.
        self._repairs: set[tuple[str, str]] = set()
        self.rounds = 0
        self.total_reseats = 0
        self.last_round: RepairScan | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- the dirty set -------------------------------------------------

    def mark(self, session_id: str) -> None:
        """Queue one session for the next pass."""
        with self._lock:
            self._dirty[session_id] = None

    def mark_all(self) -> int:
        """Queue every live session (membership changes); return pending."""
        coordinator = self._coordinator
        with coordinator._sessions_lock:
            session_ids = list(coordinator._sessions)
        with self._lock:
            self._dirty.update(dict.fromkeys(session_ids))
            return len(self._dirty)

    def pending(self) -> int:
        """Sessions still dirty."""
        with self._lock:
            return len(self._dirty)

    # -- passes --------------------------------------------------------

    def run_pass(self, max_work: int = PASS_MAX_WORK) -> int:
        """Reconcile dirty sessions in FIFO order; return ships made.

        ``max_work`` caps the ships (0 = uncapped).  Sessions the cap
        does not reach keep their place at the head of the queue.
        """
        with self._run_lock:
            return self._pass(max_work)

    def _pass(self, max_work: int) -> int:
        with self._lock:
            batch = list(self._dirty)
            self._dirty.clear()
        ships = 0
        for index, session_id in enumerate(batch):
            if max_work and ships >= max_work:
                with self._lock:
                    self._dirty = {
                        **dict.fromkeys(batch[index:]), **self._dirty
                    }
                break
            shipped, settled = self._reconcile(session_id)
            ships += shipped
            if not settled:
                self.mark(session_id)
        self._coordinator._sweep_decommissions()
        return ships

    def _reconcile(self, session_id: str) -> tuple[int, bool]:
        """Bring one session to its ring replica set.

        Returns ``(ships made, settled)``; an unsettled session (a
        member unreachable) stays dirty.
        """
        coordinator = self._coordinator
        with coordinator._sessions_lock:
            session = coordinator._sessions.get(session_id)
        if session is None:
            return 0, True  # deleted while dirty
        desired = coordinator.ring.replica_set(session_id)
        shipped = 0
        departed: list[str] = []
        with session.lock:
            for shard in desired:
                # A shard whose last call failed is skipped, not shipped
                # to under the session lock: a wedged one would hold the
                # lock a full call timeout.  The session stays dirty.
                if shard in session.synced or not coordinator.health.healthy(
                    shard
                ):
                    continue
                try:
                    coordinator._seat(session, shard)
                except ShardUnavailableError:
                    coordinator.health.record_failure(shard)
                    continue
                shipped += 1
                if (session_id, shard) in self._repairs:
                    self._repairs.discard((session_id, shard))
                    self.total_reseats += 1
            held = [shard for shard in desired if shard in session.synced]
            if held and session.replicas != desired:
                departed = [s for s in session.replicas if s not in desired]
                _log.info(
                    "session %s moved %s -> %s", session_id,
                    ",".join(session.replicas), ",".join(desired),
                )
                session.replicas = desired
                if session.primary not in desired:
                    session.primary = held[0]
                session.synced.intersection_update(desired)
            settled = len(held) == len(desired) and session.replicas == desired
        for shard in departed:
            try:
                coordinator._shard_call(
                    shard, "DELETE", f"/sessions/{session_id}"
                )
            except ShardUnavailableError:
                # Down or already removed: its TTL sweeper (or the
                # decommission teardown) collects the orphan copy.
                pass
        if shipped:
            get_metrics().counter("repro.cluster.reconcile.ships").inc(
                shipped
            )
        return shipped, settled

    # -- anti-entropy --------------------------------------------------

    def repair(self) -> RepairScan:
        """One digest scan, then one pass (the loop's and the admin hook)."""
        with self._run_lock:
            started = time.perf_counter()
            report = self._scan()
            before = self.total_reseats
            self._pass(PASS_MAX_WORK)
            report.reseated = self.total_reseats - before
            report.elapsed_s = time.perf_counter() - started
            self.rounds += 1
            self.last_round = report
        self._publish(report)
        if not report.converged:
            _log.info(
                "repair scan: %d pair(s), %d missing, %d divergent, "
                "%d unverified, %d reseated", report.pairs, report.missing,
                report.divergent, report.unverified, report.reseated,
            )
        return report

    def _scan(self) -> RepairScan:
        coordinator = self._coordinator
        report = RepairScan()
        with coordinator._sessions_lock:
            sessions = list(coordinator._sessions.values())
        # Expected digests first, shard digests after: a write that lands
        # in between shows up as a changed expectation, not a divergence.
        expected: dict[str, tuple[str, tuple[str, ...]]] = {}
        for session in sessions:
            with session.lock:
                members = coordinator.ring.replica_set(session.session_id)
                expected[session.session_id] = (
                    grid_digest(session.cells),
                    tuple(dict.fromkeys(members + session.replicas)),
                )
        shards = {shard for _, members in expected.values() for shard in members}
        held = {shard: self._fetch_digests(shard) for shard in sorted(shards)}
        report.sessions = len(sessions)
        for session in sessions:
            session_id = session.session_id
            digest, members = expected[session_id]
            for shard in members:
                report.pairs += 1
                digests = held[shard]
                if digests is None:
                    report.unverified += 1
                    continue
                entry = digests.get(session_id)
                if isinstance(entry, dict) and entry.get("digest") == digest:
                    continue
                with session.lock:
                    if grid_digest(session.cells) != digest:
                        continue  # written meanwhile; the write marked it
                    session.synced.discard(shard)
                if entry is None:
                    report.missing += 1
                else:
                    report.divergent += 1
                self._repairs.add((session_id, shard))
                self.mark(session_id)
        self._repairs = {pair for pair in self._repairs if pair[0] in expected}
        return report

    def _fetch_digests(self, shard: str) -> dict[str, Any] | None:
        """One shard's ``session_id -> {cells, digest}`` map, or None."""
        coordinator = self._coordinator
        if not coordinator.health.is_up(shard):
            return None
        try:
            reply = coordinator._shard_call(shard, "GET", "/admin/digest")
        except ShardUnavailableError:
            coordinator.health.record_failure(shard)
            return None
        if reply.status != 200:
            return None
        sessions = (reply.json() or {}).get("sessions")
        return dict(sessions) if isinstance(sessions, dict) else None

    # -- the thread ----------------------------------------------------

    def _loop(self) -> None:
        next_scan = time.monotonic() + self.repair_interval_s
        while not self._stop.wait(PASS_INTERVAL_S):
            try:
                if self.repair_interval_s and time.monotonic() >= next_scan:
                    next_scan = time.monotonic() + self.repair_interval_s
                    self.repair()
                else:
                    self.run_pass()
            except Exception as error:  # noqa: BLE001 - keep reconciling
                _log.warning("reconcile pass failed: %s", error)

    def start(self) -> "Reconciler":
        """Run passes (and scans) on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="cluster-reconciler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and wait for it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- reporting -----------------------------------------------------

    @property
    def converged(self) -> bool:
        """Whether the most recent scan found every replica in sync."""
        return self.last_round is not None and self.last_round.converged

    def _publish(self, report: RepairScan) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.counter("repro.cluster.repair.rounds").inc()
        metrics.gauge("repro.cluster.repair.converged").set(
            1 if report.converged else 0
        )
        metrics.gauge("repro.cluster.repair.last.unverified").set(
            report.unverified
        )
        metrics.gauge("repro.cluster.repair.last.seconds").set(
            round(report.elapsed_s, 6)
        )

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready repair status for ``/healthz``."""
        return {
            "enabled": self.repair_interval_s > 0,
            "interval_s": self.repair_interval_s,
            "rounds": self.rounds,
            "total_reseats": self.total_reseats,
            "converged": self.converged,
            "last_round": (
                self.last_round.to_dict() if self.last_round else None
            ),
        }
