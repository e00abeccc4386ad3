"""``repro.resilience`` — graceful degradation and fault tolerance.

MWeaver is interactive: a user sits at a spreadsheet waiting for the
candidate list, so a search that blows its budget must degrade into
"the best candidates so far", not an exception or a 504.  This package
holds the four pieces that make the reproduction survive slow queries,
flaky backends and process crashes:

* :mod:`repro.resilience.budget` — a cooperative cancellation token /
  deadline budget threaded through the TPW hot loops.  Exhaustion turns
  into **anytime semantics**: the search stops at the next iteration
  boundary and returns a ranked best-effort candidate set flagged
  ``degraded``, with a machine-readable record of which phase stopped
  and what was skipped.
* :mod:`repro.resilience.faults` — named fault points (error / latency
  / partial-result), seeded and configurable, compiled into the sqlite
  backend, the inverted index, the dataset registry and the worker
  pool so robustness behavior is deterministic and testable.
* :mod:`repro.resilience.retry` — retry with jittered exponential
  backoff around transient backend operations.
* :mod:`repro.resilience.journal` — an append-only per-session journal
  of cell inputs so ``mweaver serve`` and the cluster coordinator
  recover every live session after a crash or restart.

Everything is zero-cost when unused: the default budget is a shared
no-op, fault points are a single module-global read, and journaling is
off unless the service configures a directory.
"""

from __future__ import annotations

from repro.resilience.budget import (
    NULL_BUDGET,
    REASON_CANCELLED,
    REASON_DEADLINE,
    REASON_WORK,
    Budget,
    Degradation,
    NullBudget,
)
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    active_injector,
    fault_point,
    partial_point,
)
from repro.resilience.journal import (
    JournaledSession,
    SessionJournal,
    replay_journal,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "Budget",
    "NullBudget",
    "NULL_BUDGET",
    "Degradation",
    "REASON_DEADLINE",
    "REASON_WORK",
    "REASON_CANCELLED",
    "FaultSpec",
    "FaultInjector",
    "FAULT_POINTS",
    "fault_point",
    "partial_point",
    "active_injector",
    "RetryPolicy",
    "retry_call",
    "SessionJournal",
    "JournaledSession",
    "replay_journal",
]
