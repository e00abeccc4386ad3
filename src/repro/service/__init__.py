"""``repro.service`` — the concurrent mapping-as-a-service layer.

Turns the single-user :class:`~repro.core.session.MappingSession` into
a multi-user service (the deployment shape of the paper's interactive
evaluation — Section 5 is all about per-sample response time behind a
spreadsheet UI):

* :mod:`repro.service.config` — the :class:`ServiceConfig` knob set,
* :mod:`repro.service.registry` — shared read-only datasets plus the
  cross-session LocateSample LRU,
* :mod:`repro.service.sessions` — the named, TTL-evicting session
  table with per-session locks,
* :mod:`repro.service.workers` — the bounded worker pool (deadlines,
  cooperative cancellation, 429 backpressure),
* :mod:`repro.service.admission` — latency-aware load shedding (503 +
  ``Retry-After`` before the queue wait can blow the deadline),
* :mod:`repro.service.frontend` — the request frame, drain and RED
  metrics the service and the cluster coordinator share,
* :mod:`repro.service.app` — transport-independent request handling,
* :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer``
  adapter behind ``mweaver serve`` (with SIGTERM graceful drain).

Quick in-process use::

    from repro.service import ServiceApp, ServiceConfig

    with ServiceApp(ServiceConfig(datasets=("running",))) as app:
        status, body, _ = app.handle("POST", "/sessions", None, {})
        sid = body["session_id"]
        app.handle("POST", f"/sessions/{sid}/cells", None,
                   {"row": 0, "column": 0, "value": "Avatar"})
"""

from __future__ import annotations

from repro.service.admission import AdmissionController
from repro.service.app import ServiceApp
from repro.service.config import KNOWN_DATASETS, ServiceConfig
from repro.service.frontend import FrontEnd
from repro.service.http import MappingServer, make_server
from repro.service.registry import DatasetRegistry, LocationCache
from repro.service.retry_after import (
    clamp_retry_after,
    retry_after_header,
)
from repro.service.sessions import ManagedSession, SessionManager
from repro.service.workers import Job, WorkerPool

__all__ = [
    "ServiceApp",
    "ServiceConfig",
    "FrontEnd",
    "KNOWN_DATASETS",
    "MappingServer",
    "make_server",
    "DatasetRegistry",
    "LocationCache",
    "SessionManager",
    "ManagedSession",
    "WorkerPool",
    "Job",
    "AdmissionController",
    "retry_after_header",
    "clamp_retry_after",
]
