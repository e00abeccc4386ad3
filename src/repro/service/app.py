"""The mapping service application: routing, request semantics, JSON.

:class:`ServiceApp` is the transport-independent heart of the service —
:meth:`ServiceApp.handle` takes ``(method, path, query, body)`` and
returns ``(status, body, headers)``.  The HTTP layer
(:mod:`repro.service.http`) is a thin socket adapter over it, which is
also what makes the concurrency tests honest: they drive ``handle``
from many threads without a loopback socket in the way.

API surface (all JSON)::

    POST   /sessions                  {dataset?, columns?, on_irrelevant?}
                                      -> 201 session
    GET    /sessions                  -> {sessions: [...ids...]}
    GET    /sessions/{id}             -> session state
    DELETE /sessions/{id}             -> 204
    POST   /sessions/{id}/cells       {row, column|column_name, value}
    GET    /sessions/{id}/candidates  ?limit=N&sql=1
    GET    /sessions/{id}/explain     -> events, warnings, best SQL
    GET    /sessions/{id}/suggest     ?row=&column=&prefix=&limit=
    GET    /healthz                   -> liveness + pool/session gauges
    GET    /metrics                   -> obs snapshot + service stats
    GET    /metrics?format=prometheus -> text exposition (scrapeable)
    GET    /debug/profile             -> folded stacks (?format=json)
    GET    /debug/requests            -> flight-recorder listing
    GET    /debug/requests/{id}       -> one request's stitched trace

Failure mapping: unknown/evicted session -> 404, malformed input -> 400,
full work queue or session table -> 429 with ``Retry-After``, a shed or
draining request -> 503 with ``Retry-After``, a missed request deadline
-> 504, anything unexpected -> 500.  The request frame,
drain and RED metrics are the shared
:class:`~repro.service.frontend.FrontEnd`'s: every request runs inside a
``service.request`` span; search/prune work executes on the worker pool,
which re-parents its spans under the request via
:meth:`repro.obs.tracer.Tracer.adopt`.

Graceful degradation: each cell input carries an anytime-search
:class:`~repro.resilience.Budget` (see
``ServiceConfig.search_deadline_s``).  A search that exhausts it still
answers **200** — the session state carries ``degraded: true`` plus a
machine-readable ``degradation`` summary — so clients get the
best-effort candidate ranking instead of a 504.  504 remains the answer
only when the request deadline passes with nothing to return.

Crash safety: with ``journal_dir`` configured (``mweaver serve`` only —
a shard keeps no journal, its coordinator's is the cluster's durable
store), every applied mutation is appended to a JSONL journal and
replayed on startup, restoring live sessions (same ids, same grids)
across a crash or restart.

Operational observability: on top of the front end's RED metrics
(rate/errors by route+status, duration histograms per route; SLO burn
rates are recording rules over them, see docs/observability.md), every
request is filed in the flight recorder — with its full stitched span
tree when tracing is on — retrievable via ``/debug/requests/{id}`` and
tagged with the ``X-Request-Id`` response
header.  ``GET /metrics?format=prometheus`` serves the whole registry
as text exposition, with the formerly ``/healthz``-only state (admission
estimate, cache hit rates, pool occupancy) folded in as gauges on every
scrape.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.core.session import MappingSession
from repro.exceptions import UnknownSessionError
from repro.obs import get_metrics, get_tracer
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import FlightRecorder
from repro.resilience import (
    NULL_BUDGET,
    Budget,
    JournaledSession,
    SessionJournal,
)
from repro.resilience.journal import grid_digest
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.frontend import FrontEnd
from repro.service.registry import DatasetRegistry, LocationCache
from repro.service.sessions import ManagedSession, SessionManager
from repro.service.validation import (
    BadRequest,
    Response,
    as_int,
    cell_input,
    column_names,
    irrelevance_policy,
    require,
    served_dataset,
)
from repro.service.workers import WorkerPool

class ServiceApp(FrontEnd):
    """One running instance of the mapping service."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: DatasetRegistry | None = None,
    ) -> None:
        super().__init__("service")
        self.config = (config or ServiceConfig()).validate()
        self.registry = registry or DatasetRegistry(scale=self.config.scale)
        self.registry.preload(self.config.datasets)
        self.location_cache = (
            LocationCache(self.config.location_cache_size)
            if self.config.location_cache_size
            else None
        )
        self.journal: SessionJournal | None = None
        if self.config.journal_dir:
            self.journal = SessionJournal(
                Path(self.config.journal_dir) / "sessions.journal"
            )
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            ttl_s=self.config.session_ttl_s,
            retry_after_s=self.config.retry_after_s,
            on_evict=(
                self.journal.record_delete if self.journal else None
            ),
        )
        self.admission = AdmissionController(
            workers=self.config.workers,
            shed_factor=self.config.shed_factor,
            retry_after_s=self.config.retry_after_s,
        )
        self.pool = WorkerPool(
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            retry_after_s=self.config.retry_after_s,
        )
        self.recovered_sessions = 0
        if self.journal is not None:
            self.recovered_sessions = self.journal.recover(
                self.config.datasets, self._rebuild_session
            )
            get_metrics().counter("repro.service.sessions.recovered").inc(
                self.recovered_sessions
            )
        self.recorder = (
            FlightRecorder(
                self.config.recorder_capacity,
                slow_s=self.config.slow_request_s,
            )
            if self.config.recorder_capacity
            else None
        )
        self.profiler: SamplingProfiler | None = None
        if self.config.profile_hz:
            self.profiler = SamplingProfiler(self.config.profile_hz).start()
        self.started_at = time.time()
        self._closed = False

    def _rebuild_session(self, journaled: JournaledSession) -> ManagedSession:
        """Create the session afresh and replay its grid into it.

        The one rebuild path of journal recovery and shard restores: if
        the replay fails, the half-built session is removed again and
        the error propagates.
        """
        session_id = journaled.session_id
        factory = self._session_factory(
            journaled.dataset, journaled.columns,
            on_irrelevant=journaled.on_irrelevant,
        )
        managed = self.sessions.create(
            journaled.dataset, factory, session_id=session_id
        )
        try:
            with managed.lock:
                managed.session.load_cells(journaled.grid())
        except Exception:
            self.sessions.remove(session_id)
            raise
        return managed

    def _session_factory(self, dataset: str, columns, *, on_irrelevant: str):
        """A session constructor for ``dataset``."""
        db = self.registry.get(dataset)

        def factory() -> MappingSession:
            return MappingSession(
                db, [str(c).strip() for c in columns],
                on_irrelevant=on_irrelevant,
                location_cache=self.location_cache,
            )
        return factory

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the pool, profiler and journal (idempotent)."""
        if not self._closed:
            self._closed = True
            self.pool.shutdown()
            if self.profiler is not None:
                self.profiler.stop()
            if self.journal is not None:
                self.journal.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> Response:
        """Route one request; never raises — failures become statuses.

        The shared frame serves it; on top, the service files it in the
        flight recorder and tags the response with ``X-Request-Id``.
        """
        request_id = self.recorder.next_id() if self.recorder else None
        epoch = time.time()
        attributes = {} if request_id is None else {"request_id": request_id}
        (status, payload, headers), route, elapsed, span = self._frame(
            method, path, query, body, **attributes
        )
        if self.recorder is not None:
            reasons = []
            if isinstance(payload, dict) and payload.get("degraded"):
                reasons.append("degraded")
            spans: tuple[Any, ...] = ()
            tracer = get_tracer()
            if tracer.enabled:
                spans = (span,)
                # A bounded tracer (the always-on serve configuration)
                # hands each request root over to the recorder; scoped
                # tracers keep their roots so callers can still read
                # tracer.finished.
                if getattr(tracer, "max_roots", None):
                    tracer.release(spans)
            self.recorder.record(
                route=route, status=status, duration_s=elapsed,
                spans=spans, request_id=request_id, reasons=reasons,
                epoch_s=epoch,
            )
        if request_id is not None:
            headers = {**headers, "X-Request-Id": request_id}
        return status, payload, headers

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
        if parts and parts[0] == "debug" and method == "GET":
            if parts == ("debug", "profile"):
                return self.debug_profile(query)
            if parts == ("debug", "requests"):
                return self.debug_requests(query)
            if len(parts) == 3 and parts[1] == "requests":
                return self.debug_request(parts[2])
        if parts == ("sessions",):
            if method == "POST":
                return self.create_session(body)
            if method == "GET":
                return 200, {"sessions": list(self.sessions.ids())}, {}
        if len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return self.session_state(session_id)
            if method == "DELETE":
                self.sessions.remove(session_id)
                return 204, None, {}
        if len(parts) == 3 and parts[0] == "sessions":
            session_id, action = parts[1], parts[2]
            if action == "cells" and method == "POST":
                return self.put_cell(session_id, body)
            if action == "candidates" and method == "GET":
                return self.candidates(session_id, query)
            if action == "explain" and method == "GET":
                return self.explain(session_id)
            if action == "suggest" and method == "GET":
                return self.suggest(session_id, query)
        if self.config.shard_mode:
            # Cluster-internal surface (mweaver shard): the coordinator
            # restores failed-over sessions and scans replica digests
            # here.  Gated so a standalone serve never accepts session
            # overwrites from the network.
            if parts == ("admin", "digest") and method == "GET":
                return self.session_digests()
            if (
                len(parts) == 4
                and parts[:2] == ("admin", "sessions")
                and parts[3] == "restore"
                and method == "POST"
            ):
                return self.restore_session(parts[2], body)
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}, {}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def create_session(self, body: dict[str, Any] | None) -> Response:
        """``POST /sessions`` — admit a new mapping session."""
        body = body or {}
        dataset = served_dataset(
            str(body.get("dataset", self.config.datasets[0])),
            self.config.datasets,
        )
        columns = column_names(
            body.get("columns", list(self.config.default_columns))
        )
        factory = self._session_factory(
            dataset, columns, on_irrelevant=irrelevance_policy(body)
        )
        managed = self.sessions.create(dataset, factory)
        if self.journal is not None:
            self.journal.record_create(
                managed.session_id, dataset,
                list(managed.session.spreadsheet.columns),
                on_irrelevant=managed.session.on_irrelevant,
            )
        return 201, self._state(managed), {}

    def session_state(self, session_id: str) -> Response:
        """``GET /sessions/{id}`` — the session's current state."""
        managed = self.sessions.get(session_id)
        with managed.lock:
            return 200, self._state(managed), {}

    def put_cell(
        self, session_id: str, body: dict[str, Any] | None
    ) -> Response:
        """``POST /sessions/{id}/cells`` — apply one spreadsheet input.

        The search/prune work runs on the worker pool under the
        session's lock, bounded by the configured request deadline.  An
        anytime-search budget (``search_deadline_s``) starts ticking
        when the worker picks the job up — queue wait does not eat into
        it — and an exhausted budget degrades the search to best-effort
        candidates (still a 200; see the module docstring) instead of
        blowing the request deadline.
        """
        managed = self.sessions.get(session_id)
        row, col_index, value = cell_input(
            body, managed.session.spreadsheet.columns
        )
        deadline_s = self.config.effective_search_deadline_s
        self.admission.check(
            self.pool.qsize(), self.config.request_timeout_s
        )

        def work() -> dict[str, Any]:
            budget = Budget(deadline_s=deadline_s) if deadline_s else NULL_BUDGET
            with managed.lock:
                session = managed.session
                session.input(row, col_index, value, budget=budget)
                # ``applied``: did the cell survive the session's
                # irrelevance policy?  Journaled (only-what-was-kept —
                # an input reverted by on_irrelevant="ignore" must not
                # resurrect on replay) and reported to the caller so a
                # cluster coordinator can apply the same rule to its
                # own journal.
                applied = (
                    session.spreadsheet.cell(row, col_index)
                    == (value.strip() or None)
                )
                if self.journal is not None and applied:
                    self.journal.record_cell(
                        managed.session_id, row, col_index, value
                    )
                return {**self._state(managed), "applied": applied}

        started = time.perf_counter()
        state = self.pool.run(work, timeout_s=self.config.request_timeout_s)
        self.admission.observe(time.perf_counter() - started)
        return 200, state, {}

    def candidates(self, session_id: str, query: dict[str, str]) -> Response:
        """``GET /sessions/{id}/candidates`` — ranked candidate mappings."""
        managed = self.sessions.get(session_id)
        limit = as_int(query.get("limit", 10), "limit")
        with_sql = query.get("sql", "") in ("1", "true", "yes")
        with managed.lock:
            session = managed.session
            columns = list(session.spreadsheet.columns)
            ranked = session.candidates[: max(0, limit)]
            items = []
            for rank, candidate in enumerate(ranked, start=1):
                item: dict[str, Any] = {
                    "rank": rank,
                    "score": candidate.score,
                    "support": candidate.support,
                    "mapping": candidate.mapping.describe(),
                }
                if with_sql:
                    item["sql"] = candidate.mapping.to_sql(
                        session.db.schema, column_names=columns
                    )
                items.append(item)
            return 200, {
                "session_id": session_id,
                "status": session.status.value,
                "n_candidates": len(session.candidates),
                "candidates": items,
            }, {}

    def explain(self, session_id: str) -> Response:
        """``GET /sessions/{id}/explain`` — audit log and best mapping."""
        managed = self.sessions.get(session_id)
        with managed.lock:
            session = managed.session
            best = session.best_mapping()
            body: dict[str, Any] = {
                "session_id": session_id,
                "status": session.status.value,
                "samples": session.sample_count(),
                "events": [
                    {
                        "kind": event.kind,
                        "message": event.message,
                        "n_candidates": event.n_candidates,
                    }
                    for event in session.events
                ],
                "warnings": list(session.warnings),
                "last_error": session.last_error,
                "best_mapping": best.describe() if best else None,
                "best_sql": (
                    best.to_sql(
                        session.db.schema,
                        column_names=list(session.spreadsheet.columns),
                    )
                    if best
                    else None
                ),
            }
            return 200, body, {}

    def suggest(self, session_id: str, query: dict[str, str]) -> Response:
        """``GET /sessions/{id}/suggest`` — auto-completion values."""
        managed = self.sessions.get(session_id)
        row = as_int(query.get("row", 0), "row")
        column = as_int(require(query, "column"), "column")
        prefix = query.get("prefix", "")
        limit = as_int(query.get("limit", 10), "limit")
        self.admission.check(
            self.pool.qsize(), self.config.request_timeout_s
        )

        def work() -> list[str]:
            with managed.lock:
                return managed.session.suggest(
                    row, column, prefix, limit=limit
                )

        values = self.pool.run(work, timeout_s=self.config.request_timeout_s)
        return 200, {"session_id": session_id, "suggestions": values}, {}

    # ------------------------------------------------------------------
    # Shard-mode surface (cluster-internal; gated on config.shard_mode)
    # ------------------------------------------------------------------

    def restore_session(
        self, session_id: str, body: dict[str, Any] | None
    ) -> Response:
        """``POST /admin/sessions/{id}/restore`` — adopt a shipped session.

        The coordinator ships a session's full journaled state here: on
        failover to a replica, when warming a secondary, and when
        re-seating sessions after a shard restart.  Semantics are
        *replace*: any existing session under this id is dropped and
        rebuilt from the shipped grid via ``load_cells`` — the same
        replay primitive journal recovery uses — so repeated restores
        with the same grid are idempotent and convergent.
        """
        body = body or {}
        dataset = served_dataset(
            str(require(body, "dataset")), self.config.datasets
        )
        columns = column_names(body.get("columns"))
        on_irrelevant = irrelevance_policy(body)
        raw_cells = body.get("cells", [])
        if not isinstance(raw_cells, (list, tuple)) or not all(
            isinstance(entry, (list, tuple)) and len(entry) == 3
            for entry in raw_cells
        ):
            raise BadRequest("cells must be a list of [row, column, value]")
        cells = [
            (as_int(row, "cell row"), as_int(col, "cell column"), str(value))
            for row, col, value in raw_cells
        ]
        replaced = session_id in self.sessions.ids()
        if replaced:
            self.sessions.remove(session_id)
        managed = self._rebuild_session(JournaledSession(
            session_id, dataset, list(columns), on_irrelevant, cells
        ))
        get_metrics().counter("repro.service.sessions.restored").inc()
        with managed.lock:
            digest = grid_digest(managed.session.spreadsheet.cells())
            return 200, {**self._state(managed), "restored": True,
                         "replaced": replaced, "digest": digest}, {}

    def session_digests(self) -> Response:
        """``GET /admin/digest`` — every held session's grid digest.

        The coordinator's anti-entropy loop compares these against its
        journaled grids to find missing/divergent replicas — one bulk
        call per shard per round instead of one probe per session.
        Sessions that vanish mid-enumeration (TTL eviction races) are
        simply omitted; the next round sees the settled state.
        """
        sessions: dict[str, dict[str, Any]] = {}
        for session_id in self.sessions.ids():
            try:
                managed = self.sessions.get(session_id)
            except UnknownSessionError:
                continue
            with managed.lock:
                cells = managed.session.spreadsheet.cells()
            sessions[session_id] = {
                "cells": len(cells),
                "digest": grid_digest(cells),
            }
        return 200, {"sessions": sessions, "count": len(sessions)}, {}

    def _health(self) -> tuple[dict[str, Any], list[str]]:
        body: dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "datasets": (
                list(self.registry.loaded()) or list(self.config.datasets)
            ),
            "sessions": self.sessions.count(),
            "max_sessions": self.config.max_sessions,
            "workers": self.config.workers,
            "queue_size": self.config.queue_size,
            "search_deadline_s": self.config.effective_search_deadline_s,
            "admission": self.admission.snapshot(),
            "pool": self.pool.snapshot(),
            "recorder": (
                self.recorder.stats() if self.recorder is not None else None
            ),
            "profiler": (
                {"running": self.profiler.running, "hz": self.profiler.hz}
                if self.profiler is not None
                else None
            ),
        }
        return body, []

    def _refresh_gauges(self) -> None:
        """Fold live operational state into the metrics registry.

        Runs on every ``/metrics`` scrape so one scrape sees the whole
        picture: the admission estimate, cache hit rates and
        session/journal/pool occupancy that previously lived only in
        ``/healthz`` JSON all become ordinary gauges here.
        """
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.gauge("repro.service.uptime.seconds").set(
            round(time.time() - self.started_at, 3)
        )
        metrics.gauge("repro.service.sessions.live").set(
            self.sessions.count()
        )
        metrics.gauge("repro.service.sessions.evicted").set(
            self.sessions.evicted
        )
        admission = self.admission.snapshot()
        metrics.gauge("repro.admission.ewma_job_s").set(
            admission.get("ewma_job_s") or 0.0
        )
        metrics.gauge("repro.admission.shed").set(admission.get("shed", 0))
        if self.location_cache is not None:
            stats = self.location_cache.stats()
            metrics.gauge("repro.location_cache.hits").set(stats["hits"])
            metrics.gauge("repro.location_cache.misses").set(stats["misses"])
            metrics.gauge("repro.location_cache.size").set(stats["size"])
        if self.journal is not None:
            metrics.gauge("repro.journal.appended").set(self.journal.appended)
        pool = self.pool.snapshot()
        metrics.gauge("repro.service.workers.busy").set(pool["busy"])
        metrics.gauge("repro.service.queue.depth").set(pool["queue_depth"])
        if self.recorder is not None:
            recorder = self.recorder.stats()
            metrics.gauge("repro.recorder.recorded").set(recorder["recorded"])
            metrics.gauge("repro.recorder.interesting").set(
                recorder["interesting"]
            )

    def _metrics_summary(self) -> dict[str, Any]:
        cache_stats = (
            self.location_cache.stats() if self.location_cache else None
        )
        return {
            "service": {
                "uptime_s": round(time.time() - self.started_at, 3),
                "sessions": self.sessions.count(),
                "sessions_evicted": self.sessions.evicted,
                "location_cache": cache_stats,
            },
        }

    def debug_profile(self, query: dict[str, str] | None = None) -> Response:
        """``GET /debug/profile`` — the sampling profiler's folded stacks.

        Default is collapsed-stack text (one ``stack count`` line —
        feed it straight to a flamegraph tool); ``?format=json`` returns
        the structured snapshot; ``?reset=1`` clears the aggregate
        after rendering.
        """
        query = query or {}
        if self.profiler is None:
            return 404, {
                "error": "profiler disabled (profile_hz=0)",
            }, {}
        if query.get("format") == "json":
            body: dict[str, Any] | str = self.profiler.snapshot()
            headers: dict[str, str] = {}
        else:
            body = self.profiler.folded()
            headers = {"Content-Type": "text/plain; charset=utf-8"}
        if query.get("reset", "") in ("1", "true", "yes"):
            self.profiler.reset()
        return 200, body, headers

    def debug_requests(self, query: dict[str, str] | None = None) -> Response:
        """``GET /debug/requests`` — the flight recorder's listing."""
        query = query or {}
        if self.recorder is None:
            return 404, {"error": "flight recorder disabled"}, {}
        limit = as_int(query.get("limit", 50), "limit")
        interesting = query.get("interesting", "") in ("1", "true", "yes")
        return 200, {
            "requests": self.recorder.list(
                interesting_only=interesting, limit=max(0, limit)
            ),
            "stats": self.recorder.stats(),
        }, {}

    def debug_request(self, request_id: str) -> Response:
        """``GET /debug/requests/{id}`` — one request's stitched trace."""
        if self.recorder is None:
            return 404, {"error": "flight recorder disabled"}, {}
        record = self.recorder.get(request_id)
        if record is None:
            return 404, {
                "error": f"no recorded request {request_id!r} "
                "(aged out or never recorded)",
            }, {}
        return 200, record.detail(), {}

    # ------------------------------------------------------------------

    def _state(self, managed: ManagedSession) -> dict[str, Any]:
        session = managed.session
        return {
            "session_id": managed.session_id,
            "dataset": managed.dataset,
            "columns": list(session.spreadsheet.columns),
            "status": session.status.value,
            "samples": session.sample_count(),
            "n_candidates": len(session.candidates),
            "converged": session.converged,
            "warnings": list(session.warnings),
            "last_error": session.last_error,
            "degraded": session.last_degradation is not None,
            "degradation": session.last_degradation,
        }
