"""The cluster coordinator: routing, failover, replication.

:class:`CoordinatorApp` fronts N ``mweaver shard`` backends with the
same transport contract as :class:`repro.service.app.ServiceApp`
(``handle(method, path, query, body) -> (status, payload, headers)``):
both are a :class:`~repro.service.frontend.FrontEnd`, which owns the
request frame, drain and RED metrics, so the stock
:class:`~repro.service.http.MappingServer` serves it and every existing
client — including the load bench — works unchanged.

Design:

* **Placement.** Sessions pin to shards via the consistent-hash ring's
  R-way replica set (:mod:`repro.cluster.ring`).  The first *routable*
  member is the session's primary; the rest are failover targets.
* **Durability.** The coordinator journals every accepted mutation
  (create / applied cell / delete) through a
  :class:`~repro.resilience.SessionJournal` *before* acknowledging.
  "Accepted" means the shard answered 200 with ``applied`` — the same
  only-what-was-kept rule ``mweaver serve`` journals under.  Shards
  keep no journal: this one is the cluster's only durable store, and
  a shard that comes back empty is reseated from it.
* **Failover.** A session call walks the replica set: transport
  failure counts against the shard's health and moves on; a shard that
  answers 404 for a session the coordinator knows is re-seated by
  shipping the journaled grid to ``/admin/sessions/{id}/restore`` and
  retrying.
  One mechanism covers a killed primary, a cold secondary, a restarted
  shard, and a restarted coordinator (lazy re-seat after journal
  replay).  Only when every replica is exhausted does the client see a
  503 with ``reason="shard_down"``.
* **Replication.** The hot path touches one shard and marks the
  session dirty; the :class:`~repro.cluster.reconcile.Reconciler`
  ships full-grid restores (idempotent, convergent) to the rest of the
  ring replica set, moves placements after membership changes, and
  repairs what its periodic digest scan finds missing or divergent.
  Each session records in ``synced`` which shards hold its current
  grid; a failover onto a shard outside it seats the grid first.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any

from repro.exceptions import (
    ServiceOverloadedError,
    ServiceUnavailableError,
    ShardUnavailableError,
    UnknownSessionError,
)
from repro.cluster.client import HttpShardClient, ShardReply
from repro.cluster.config import ClusterConfig
from repro.cluster.health import HealthMonitor
from repro.cluster.reconcile import Reconciler
from repro.cluster.ring import HashRing
from repro.obs import get_logger, get_metrics
from repro.resilience import JournaledSession, SessionJournal
from repro.service.frontend import FrontEnd
from repro.service.validation import (
    BadRequest,
    Response,
    cell_input,
    column_names,
    irrelevance_policy,
    require,
    served_dataset,
)

_log = get_logger(__name__)

#: Reply headers worth forwarding to the client on passthrough.
_FORWARD_HEADERS = ("Content-Type", "Retry-After", "X-Request-Id")


class ClusterSession:
    """The coordinator's record of one session: placement + grid."""

    __slots__ = (
        "session_id", "dataset", "columns", "on_irrelevant",
        "replicas", "primary", "cells", "failovers", "lock", "synced",
    )

    def __init__(
        self,
        session_id: str,
        dataset: str,
        columns: list[str],
        on_irrelevant: str,
        replicas: tuple[str, ...],
    ) -> None:
        self.session_id = session_id
        self.dataset = dataset
        self.columns = list(columns)
        self.on_irrelevant = on_irrelevant
        self.replicas = replicas
        self.primary = replicas[0]
        #: Accepted cells in acceptance order (last write per cell wins).
        self.cells: dict[tuple[int, int], str] = {}
        self.failovers = 0
        self.lock = threading.RLock()
        #: Shards known to hold exactly ``cells`` (the observed state
        #: the reconciler compares with the ring's replica set).
        self.synced: set[str] = set()

    def restore_payload(self) -> dict[str, Any]:
        """The body shipped to a shard's ``/admin/.../restore``."""
        return {
            "dataset": self.dataset,
            "columns": list(self.columns),
            "on_irrelevant": self.on_irrelevant,
            "cells": [
                [row, column, value]
                for (row, column), value in self.cells.items()
            ],
        }


class CoordinatorApp(FrontEnd):
    """One running coordinator instance (transport-independent)."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        clients: dict[str, Any] | None = None,
        client_factory: Any = None,
        start_background: bool = True,
    ) -> None:
        super().__init__("cluster")
        self.config = (config or ClusterConfig()).validate()
        self._client_factory = client_factory or (
            lambda address: HttpShardClient(
                address, timeout_s=self.config.request_timeout_s
            )
        )
        self.clients: dict[str, Any] = clients or {
            shard: self._client_factory(shard)
            for shard in self.config.shards
        }
        if set(self.clients) != set(self.config.shards):
            raise ValueError("clients must cover exactly config.shards")
        # Guards ring/clients/_decommissioning mutation (admin API);
        # plain reads ride on atomic attribute access.
        self._membership_lock = threading.RLock()
        self._decommissioning: set[str] = set()
        self.membership_changes = 0
        self.ring = HashRing(
            self.config.shards,
            replicas=self.config.replication,
            vnodes=self.config.vnodes,
        )
        self.health = HealthMonitor(
            self.clients,
            interval_s=self.config.heartbeat_interval_s,
            failure_threshold=self.config.failure_threshold,
            readmit_threshold=self.config.readmit_threshold,
        )
        self.reconciler = Reconciler(
            self, repair_interval_s=self.config.repair_interval_s
        )
        self.journal: SessionJournal | None = None
        if self.config.journal_dir:
            from pathlib import Path

            self.journal = SessionJournal(
                Path(self.config.journal_dir) / "cluster.journal"
            )
        self._sessions: dict[str, ClusterSession] = {}
        self._sessions_lock = threading.Lock()
        self._seq = itertools.count(1)
        self.recovered_sessions = 0
        if self.journal is not None:
            self.recovered_sessions = self.journal.recover(
                self.config.datasets, self._recover_session
            )
        self.failovers = 0
        if start_background:
            self.health.start()
            self.reconciler.start()
        self.started_at = time.time()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _recover_session(self, journaled: JournaledSession) -> None:
        """Re-admit one journaled session to the coordinator's table.

        Shards are *not* contacted here: recovery only restores the
        coordinator's authoritative view.  The first call that finds a
        shard answering 404 re-seats the session lazily — so a
        coordinator restart costs nothing until a session is touched.
        """
        session_id = journaled.session_id
        session = ClusterSession(
            session_id, journaled.dataset, journaled.columns,
            journaled.on_irrelevant, self.ring.replica_set(session_id),
        )
        # Same normalization put_cell applies: stripped values, empty
        # cells absent (a journaled "" is a deletion).
        session.cells = {
            position: value.strip()
            for position, value in journaled.grid().items()
            if value.strip()
        }
        self._sessions[session_id] = session
        self.reconciler.mark(session_id)

    def close(self) -> None:
        """Release threads, clients and the journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.reconciler.stop()
        self.health.stop()
        for client in self.clients.values():
            client.close()
        if self.journal is not None:
            self.journal.close()

    # -- dispatch ------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> Response:
        """Route one request; never raises — failures become statuses."""
        return self._frame(method, path, query, body)[0]

    def _dispatch(
        self,
        method: str,
        parts: tuple[str, ...],
        query: dict[str, str],
        body: dict[str, Any] | None,
    ) -> Response:
        if parts == ("healthz",) and method == "GET":
            return self.healthz(query)
        if parts == ("metrics",) and method == "GET":
            return self.metrics(query)
        if parts == ("sessions",):
            if method == "POST":
                return self.create_session(body)
            if method == "GET":
                with self._sessions_lock:
                    return 200, {"sessions": sorted(self._sessions)}, {}
        if len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return self.proxy_session(
                    session_id, "GET", f"/sessions/{session_id}", query
                )
            if method == "DELETE":
                return self.delete_session(session_id)
        if len(parts) == 3 and parts[0] == "sessions":
            session_id, action = parts[1], parts[2]
            if action == "cells" and method == "POST":
                return self.put_cell(session_id, body)
            if method == "GET" and action in (
                "candidates", "explain", "suggest"
            ):
                return self.proxy_session(
                    session_id, "GET",
                    f"/sessions/{session_id}/{action}", query,
                )
        if parts == ("admin", "shards"):
            if method == "GET":
                return self.admin_list_shards()
            if method == "POST":
                return self.admin_add_shard(body)
        if (
            len(parts) == 3
            and parts[:2] == ("admin", "shards")
            and method == "DELETE"
        ):
            return self.admin_remove_shard(parts[2])
        if parts == ("admin", "repair") and method == "POST":
            return self.admin_repair()
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}, {}

    # -- shard plumbing ------------------------------------------------

    def _shard_call(
        self,
        shard: str,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> ShardReply:
        client = self.clients.get(shard)
        if client is None:
            # Removed by a concurrent decommission: same contract as a
            # dead shard — the caller fails over.
            raise ShardUnavailableError(shard, "shard left the cluster")
        return client.call(method, path, query, body)

    def _ship_restore(
        self, shard: str, session_id: str, payload: dict[str, Any]
    ) -> None:
        """Re-seat one session on one shard (raises on any failure)."""
        reply = self._shard_call(
            shard, "POST", f"/admin/sessions/{session_id}/restore",
            None, payload,
        )
        if reply.status != 200:
            raise ShardUnavailableError(
                shard, f"restore answered {reply.status}"
            )

    def _seat(self, session: ClusterSession, shard: str) -> None:
        """Ship ``session``'s grid to ``shard`` and record it as synced.

        Callers hold ``session.lock``, so no write can be accepted
        between the copy and the ship.
        """
        self._ship_restore(
            shard, session.session_id, session.restore_payload()
        )
        session.synced.add(shard)

    def _call_session(
        self,
        session: ClusterSession,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
        *,
        seats: bool = False,
    ) -> ShardReply:
        """One session-pinned call with replica failover.

        Walks the replica set starting at the current primary; callers
        hold ``session.lock``.  A shard outside ``session.synced`` is
        seated with the journaled grid before it serves, so a stale or
        unknown copy never answers; ``seats`` marks a call that is
        itself such a restore (create).  A transport failure counts
        against the shard's health and moves on; a 404 from a shard
        that *should* hold the session means it lost it (restart,
        eviction) — re-seat and retry once.  Success promotes whichever
        shard answered to primary.  Shard refusals (429 / 503 / 504)
        pass through: the shard is alive, just busy.
        """
        candidates = [session.primary] + [
            shard for shard in session.replicas
            if shard != session.primary
        ]
        routable = [s for s in candidates if self.health.is_up(s)]
        for shard in routable:
            try:
                if shard not in session.synced and not seats:
                    self._seat(session, shard)
                reply = self._shard_call(shard, method, path, query, body)
                if reply.status == 404:
                    # The shard lost the session: re-seat and retry.
                    self._seat(session, shard)
                    reply = self._shard_call(
                        shard, method, path, query, body
                    )
                    if reply.status == 404:
                        continue
            except ShardUnavailableError:
                # Whatever the shard holds now is unknown.
                session.synced.discard(shard)
                self.health.record_failure(shard)
                continue
            self.health.record_success(shard)
            if seats and reply.status == 200:
                session.synced.add(shard)
            if shard != session.primary:
                _log.warning(
                    "session %s failed over %s -> %s",
                    session.session_id, session.primary, shard,
                )
                session.primary = shard
                session.failovers += 1
                self.failovers += 1
                get_metrics().counter("repro.cluster.failovers").inc()
                # The old primary will miss what this one accepts.
                self.reconciler.mark(session.session_id)
            return reply
        raise ServiceUnavailableError(
            f"no replica of session {session.session_id} is reachable "
            f"(replicas: {', '.join(session.replicas)})",
            retry_after_s=self.config.retry_after_s,
            reason="shard_down",
        )

    def _passthrough(self, reply: ShardReply) -> Response:
        """Forward a shard reply verbatim (no decode/re-encode)."""
        headers = {
            key: reply.headers[key]
            for key in _FORWARD_HEADERS
            if key in reply.headers
        }
        if not reply.body:
            return reply.status, None, headers
        headers.setdefault("Content-Type", "application/json")
        return reply.status, reply.text(), headers

    def _session(self, session_id: str) -> ClusterSession:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(session_id)
        return session

    # -- endpoints -----------------------------------------------------

    def create_session(self, body: dict[str, Any] | None) -> Response:
        """``POST /sessions`` — place and create a replicated session."""
        body = body or {}
        dataset = served_dataset(
            str(body.get("dataset", self.config.datasets[0])),
            self.config.datasets,
        )
        columns = column_names(
            body.get("columns", list(self.config.default_columns))
        )
        on_irrelevant = irrelevance_policy(body)
        with self._sessions_lock:
            if len(self._sessions) >= self.config.max_sessions:
                raise ServiceOverloadedError(
                    f"session table full ({self.config.max_sessions})",
                    retry_after_s=self.config.retry_after_s,
                )
            session_id = (
                f"x{next(self._seq):04d}-{os.urandom(3).hex()}"
            )
            session = ClusterSession(
                session_id, dataset, [str(c).strip() for c in columns],
                on_irrelevant, self.ring.replica_set(session_id),
            )
            self._sessions[session_id] = session
        try:
            with session.lock:
                # An empty-grid restore on the primary acts as
                # create-with-id; failover inside _call_session covers
                # a down home shard.
                reply = self._call_session(
                    session, "POST",
                    f"/admin/sessions/{session_id}/restore",
                    None, session.restore_payload(), seats=True,
                )
        except Exception:
            with self._sessions_lock:
                self._sessions.pop(session_id, None)
            raise
        if reply.status != 200:
            with self._sessions_lock:
                self._sessions.pop(session_id, None)
            return self._passthrough(reply)
        if self.journal is not None:
            self.journal.record_create(
                session_id, dataset, session.columns,
                on_irrelevant=on_irrelevant,
            )
        self.reconciler.mark(session_id)
        state = dict(reply.json())
        state.pop("restored", None)
        state.pop("replaced", None)
        state["replicas"] = list(session.replicas)
        state["primary"] = session.primary
        return 201, state, {}

    def put_cell(
        self, session_id: str, body: dict[str, Any] | None
    ) -> Response:
        """``POST /sessions/{id}/cells`` — proxy one input, journal it."""
        session = self._session(session_id)
        row, col_index, value = cell_input(body, session.columns)
        with session.lock:
            reply = self._call_session(
                session, "POST", f"/sessions/{session_id}/cells",
                None, body,
            )
            if reply.status != 200:
                return self._passthrough(reply)
            state = reply.json()
            if state.get("applied"):
                # Accepted: durable in the coordinator journal before
                # the client sees the 200 — this is the state failover
                # replays, so `kill -9` of the shard cannot lose it.
                # Mirror the spreadsheet's normalization (values
                # stripped, empty cells absent) so the coordinator's
                # grid hashes identically to the shard's under
                # digest comparison.  Only the primary holds it now.
                stripped = value.strip()
                if stripped:
                    session.cells[(row, col_index)] = stripped
                else:
                    session.cells.pop((row, col_index), None)
                if self.journal is not None:
                    self.journal.record_cell(
                        session_id, row, col_index, value
                    )
                session.synced = {session.primary}
                self.reconciler.mark(session_id)
        return 200, state, {}

    def proxy_session(
        self,
        session_id: str,
        method: str,
        path: str,
        query: dict[str, str],
    ) -> Response:
        """Read-only session calls: route with failover, pass through."""
        session = self._session(session_id)
        with session.lock:
            reply = self._call_session(session, method, path, query, None)
        return self._passthrough(reply)

    def delete_session(self, session_id: str) -> Response:
        """``DELETE /sessions/{id}`` — drop everywhere, best-effort."""
        with self._sessions_lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(session_id)
        if self.journal is not None:
            self.journal.record_delete(session_id)
        for shard in session.replicas:
            try:
                self._shard_call(
                    shard, "DELETE", f"/sessions/{session_id}"
                )
            except ShardUnavailableError:
                # The shard is down; its TTL sweeper will collect the
                # orphan if it comes back.
                self.health.record_failure(shard)
        return 204, None, {}

    # -- live membership (admin API) -----------------------------------

    def admin_list_shards(self) -> Response:
        """``GET /admin/shards`` — membership + reconcile/repair status."""
        with self._membership_lock:
            ring_shards = set(self.ring.shards)
            decommissioning = set(self._decommissioning)
        health = {
            entry["shard"]: entry for entry in self.health.snapshot()
        }
        members = [
            {
                "address": shard,
                "on_ring": shard in ring_shards,
                "decommissioning": shard in decommissioning,
                "up": bool(health.get(shard, {}).get("up")),
            }
            for shard in sorted(ring_shards | decommissioning)
        ]
        return 200, {
            "shards": members,
            "ring": self.ring.summary(),
            "membership_changes": self.membership_changes,
            "pending": self.reconciler.pending(),
            "repair": self.reconciler.snapshot(),
        }, {}

    def admin_add_shard(self, body: dict[str, Any] | None) -> Response:
        """``POST /admin/shards`` — join a shard to the ring, live.

        The new shard starts receiving heartbeats immediately; the
        reconciler then moves every session whose replica set the join
        changed.  Re-adding a shard that is mid-decommission cancels the
        decommission.
        """
        address = str(require(body, "address")).strip()
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise BadRequest(f"address {address!r} is not host:port")
        with self._membership_lock:
            if address in self.ring.shards:
                return 409, {
                    "error": f"shard {address} is already a member"
                }, {}
            rejoining = address in self._decommissioning
            self.ring = self.ring.add(address)
            self._decommissioning.discard(address)
            if address not in self.clients:
                client = self._client_factory(address)
                self.clients[address] = client
                self.health.add_shard(address, client)
            self.membership_changes += 1
        queued = self.reconciler.mark_all()
        get_metrics().counter(
            "repro.cluster.membership.changes", op="join"
        ).inc()
        _log.info(
            "shard %s %s the ring (%d session(s) pending)",
            address, "rejoined" if rejoining else "joined", queued,
        )
        return 201, {
            "address": address,
            "rejoined": rejoining,
            "ring": self.ring.summary(),
            "pending": queued,
        }, {}

    def admin_remove_shard(self, address: str) -> Response:
        """``DELETE /admin/shards/{address}`` — decommission, live.

        The shard leaves the *ring* at once (no new placements) but
        keeps serving the sessions it holds while the reconciler
        moves them off; only when nothing references it any more is
        it dropped from the health monitor and its client closed
        (:meth:`_sweep_decommissions`).  Answers 202 — removal is
        asynchronous by design.
        """
        with self._membership_lock:
            if address not in self.ring.shards:
                if address in self._decommissioning:
                    return 202, {
                        "address": address,
                        "decommissioning": True,
                        "pending": self.reconciler.pending(),
                    }, {}
                return 404, {
                    "error": f"shard {address} is not a member"
                }, {}
            if len(self.ring.shards) == 1:
                return 400, {
                    "error": "cannot decommission the last shard"
                }, {}
            self.ring = self.ring.remove(address)
            self._decommissioning.add(address)
            self.membership_changes += 1
        queued = self.reconciler.mark_all()
        get_metrics().counter(
            "repro.cluster.membership.changes", op="decommission"
        ).inc()
        _log.info(
            "shard %s decommissioning (%d session(s) pending)",
            address, queued,
        )
        return 202, {
            "address": address,
            "decommissioning": True,
            "pending": queued,
        }, {}

    def _sweep_decommissions(self) -> None:
        """Finish any decommission no live session references."""
        with self._membership_lock:
            pending = set(self._decommissioning)
        if not pending:
            return
        with self._sessions_lock:
            referenced: set[str] = set()
            for session in self._sessions.values():
                referenced.update(session.replicas)
                referenced.add(session.primary)
        for shard in sorted(pending - referenced):
            self._finish_decommission(shard)

    def _finish_decommission(self, shard: str) -> None:
        with self._membership_lock:
            if shard not in self._decommissioning:
                return
            self._decommissioning.discard(shard)
            self.health.remove_shard(shard)
            client = self.clients.pop(shard, None)
        if client is not None:
            client.close()
        get_metrics().counter(
            "repro.cluster.membership.changes", op="removed"
        ).inc()
        _log.info("shard %s decommissioned (drained and removed)", shard)

    def admin_repair(self) -> Response:
        """``POST /admin/repair`` — one synchronous digest scan and pass."""
        report = self.reconciler.repair()
        return 200, {
            "round": report.to_dict(),
            "rounds": self.reconciler.rounds,
            "total_reseats": self.reconciler.total_reseats,
        }, {}

    # -- health + metrics ----------------------------------------------

    def _health(self) -> tuple[dict[str, Any], list[str]]:
        shards = self.health.snapshot()
        up = sum(1 for shard in shards if shard["up"])
        with self._membership_lock:
            decommissioning = sorted(self._decommissioning)
        with self._sessions_lock:
            placement = {
                session_id: {
                    "primary": session.primary,
                    "replicas": list(session.replicas),
                    "cells": len(session.cells),
                    "failovers": session.failovers,
                }
                for session_id, session in sorted(self._sessions.items())
            }
        body: dict[str, Any] = {
            "status": "ok" if up == len(shards) else "degraded",
            "role": "coordinator",
            "uptime_s": round(time.time() - self.started_at, 3),
            "shards": shards,
            "shards_up": up,
            "ring": self.ring.summary(),
            "sessions": {
                "count": len(placement),
                "placement": placement,
            },
            "failovers": self.failovers,
            "pending": self.reconciler.pending(),
            "membership": {
                "changes": self.membership_changes,
                "decommissioning": decommissioning,
            },
            "repair": self.reconciler.snapshot(),
        }
        return body, [] if up else ["no_healthy_shard"]

    def _refresh_gauges(self) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.gauge("repro.cluster.uptime.seconds").set(
            round(time.time() - self.started_at, 3)
        )
        with self._sessions_lock:
            live = len(self._sessions)
        metrics.gauge("repro.cluster.sessions.live").set(live)
        monitored = self.health.shards()
        metrics.gauge("repro.cluster.shards.total").set(len(monitored))
        up = 0
        for shard in monitored:
            shard_up = self.health.is_up(shard)
            up += 1 if shard_up else 0
            metrics.gauge(
                "repro.cluster.shard.up", shard=shard
            ).set(1 if shard_up else 0)
        metrics.gauge("repro.cluster.shards.up").set(up)
        metrics.gauge("repro.cluster.reconcile.pending").set(
            self.reconciler.pending()
        )
        metrics.gauge("repro.cluster.membership.decommissioning").set(
            len(self._decommissioning)
        )

    def _metrics_summary(self) -> dict[str, Any]:
        with self._sessions_lock:
            live = len(self._sessions)
        return {
            "cluster": {
                "uptime_s": round(time.time() - self.started_at, 3),
                "sessions": live,
                "shards_up": len(self.health.up_shards()),
                "failovers": self.failovers,
            },
        }
