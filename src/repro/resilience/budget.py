"""Cooperative search budgets and anytime degradation records.

A :class:`Budget` is the cancellation token threaded through the TPW
hot loops (pairwise walk enumeration, instantiation queries, weave
levels, ranking).  The loops call :meth:`Budget.exhausted` at
iteration boundaries; when the deadline passes, the work allowance
runs out, or a caller cancels from another thread, the phase stops
where it is, records a :class:`Degradation` describing what was
skipped, and the search returns the best-effort ranked candidates
found so far instead of raising.

Design constraints:

* **Cheap when idle.** The shared :data:`NULL_BUDGET` answers
  ``exhausted()`` with a constant ``False``; live budgets read the
  monotonic clock only every ``check_stride`` calls so the happy path
  pays a couple of integer operations per iteration.
* **Sticky.** Once exhausted, a budget stays exhausted — later phases
  short-circuit before doing any work.
* **Thread-safe cancellation.** :meth:`Budget.cancel` may be called
  from any thread (the service's request thread cancels the worker's
  search); the flag is a single attribute write, read without locking
  by the hot loop.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: Reasons a budget can stop a search, in the machine-readable payload.
REASON_DEADLINE = "deadline"
REASON_WORK = "work_budget"
REASON_CANCELLED = "cancelled"


@dataclass
class Degradation:
    """One phase's record of why (and where) a search degraded.

    ``phase`` names the TPW phase that stopped (``locate``,
    ``pairwise``, ``instantiate``, ``weave``, ``rank``); ``reason`` is
    one of :data:`REASON_DEADLINE` / :data:`REASON_WORK` /
    :data:`REASON_CANCELLED`; ``elapsed_s`` is the wall time since the
    budget started; ``skipped`` counts whatever work the phase knows it
    left on the table (walks, mapping paths, weave levels…).
    """

    phase: str
    reason: str
    elapsed_s: float
    skipped: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering for payloads, spans and explain."""
        return {
            "phase": self.phase,
            "reason": self.reason,
            "elapsed_s": round(self.elapsed_s, 6),
            "skipped": dict(self.skipped),
        }


class NullBudget:
    """The shared no-op budget: never exhausted, records nothing.

    Keeps the un-budgeted hot path free of clock reads and branches
    beyond a single constant-returning method call.
    """

    __slots__ = ()

    #: A null budget can never degrade a search.
    degraded = False
    #: ...and therefore never carries degradations.
    degradations: tuple[Degradation, ...] = ()

    def exhausted(self) -> bool:
        """Always ``False``."""
        return False

    def charge(self, amount: int = 1) -> None:
        """No-op."""

    def cancel(self, reason: str = REASON_CANCELLED) -> None:
        """No-op (there is nothing to cancel)."""

    def stop(self, phase: str, **skipped: int) -> None:
        """No-op (a null budget never stops a phase)."""

    def summary(self) -> None:
        """Always ``None`` — there is never a degradation to report."""
        return None


#: Module-wide shared no-op budget (the default everywhere).
NULL_BUDGET = NullBudget()


class Budget:
    """A deadline / work-unit budget with cooperative cancellation.

    Parameters
    ----------
    deadline_s:
        Wall-clock allowance in seconds, measured from construction
        (``None`` = no deadline).
    max_work:
        Total work units (as counted by :meth:`charge`) before the
        budget trips (``None`` = unbounded).  The TPW loops charge one
        unit per walk / instantiation query / woven path / ranked
        group, so this acts as a machine-independent size budget.
    clock:
        Injectable monotonic clock for tests.
    check_stride:
        How many :meth:`exhausted` calls to batch between clock reads.
        Cancellation and work exhaustion are still seen immediately.
    """

    __slots__ = (
        "deadline_s", "max_work", "degradations",
        "_clock", "_started_at", "_work", "_cancelled_reason",
        "_exhausted_reason", "_stride", "_calls",
    )

    def __init__(
        self,
        *,
        deadline_s: float | None = None,
        max_work: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        check_stride: int = 16,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if max_work is not None and max_work <= 0:
            raise ValueError("max_work must be positive (or None)")
        if check_stride <= 0:
            raise ValueError("check_stride must be positive")
        self.deadline_s = deadline_s
        self.max_work = max_work
        #: Degradation records, in the order the phases stopped.
        self.degradations: list[Degradation] = []
        self._clock = clock
        self._started_at = clock()
        self._work = 0
        self._cancelled_reason: str | None = None
        self._exhausted_reason: str | None = None
        self._stride = check_stride
        self._calls = 0

    # -- accounting ----------------------------------------------------

    def charge(self, amount: int = 1) -> None:
        """Record ``amount`` units of work against the budget."""
        self._work += amount

    @property
    def work(self) -> int:
        """Work units charged so far."""
        return self._work

    def elapsed_s(self) -> float:
        """Wall seconds since the budget started."""
        return self._clock() - self._started_at

    def remaining_s(self) -> float | None:
        """Seconds left before the deadline (``None`` with no deadline)."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed_s())

    # -- cancellation --------------------------------------------------

    def cancel(self, reason: str = REASON_CANCELLED) -> None:
        """Cancel cooperatively (safe from any thread).

        The running search notices at its next iteration boundary and
        degrades exactly as it would on a deadline.
        """
        self._cancelled_reason = reason

    # -- exhaustion ----------------------------------------------------

    def exhausted(self) -> bool:
        """Whether the budget is spent (sticky once ``True``).

        Cancellation and work-unit exhaustion are checked on every
        call; the deadline clock is read every ``check_stride`` calls
        to keep per-iteration overhead to a few integer operations.
        """
        if self._exhausted_reason is not None:
            return True
        if self._cancelled_reason is not None:
            self._exhausted_reason = self._cancelled_reason
            return True
        if self.max_work is not None and self._work > self.max_work:
            self._exhausted_reason = REASON_WORK
            return True
        if self.deadline_s is not None:
            self._calls += 1
            if self._calls % self._stride == 0 or self._calls == 1:
                if self.elapsed_s() > self.deadline_s:
                    self._exhausted_reason = REASON_DEADLINE
                    return True
        return False

    @property
    def reason(self) -> str | None:
        """Why the budget tripped (``None`` while it has not)."""
        return self._exhausted_reason

    # -- degradation records -------------------------------------------

    def stop(self, phase: str, **skipped: int) -> Degradation:
        """Record that ``phase`` stopped early; returns the record.

        Called by the phase that noticed exhaustion, with whatever
        skipped-work counters it can cheaply provide.  The first
        recorded degradation is the search's headline reason.
        """
        record = Degradation(
            phase=phase,
            reason=self._exhausted_reason or REASON_CANCELLED,
            elapsed_s=self.elapsed_s(),
            skipped={key: int(value) for key, value in skipped.items()},
        )
        self.degradations.append(record)
        return record

    @property
    def degraded(self) -> bool:
        """Whether any phase recorded a degradation."""
        return bool(self.degradations)

    def summary(self) -> dict[str, Any] | None:
        """Machine-readable degradation payload (``None`` if clean).

        The headline fields come from the *first* degradation (the
        phase that actually tripped); later phases that were skipped
        entirely appear under ``"phases"``.
        """
        if not self.degradations:
            return None
        first = self.degradations[0]
        return {
            "degraded": True,
            "phase": first.phase,
            "reason": first.reason,
            "elapsed_s": round(first.elapsed_s, 6),
            "work": self._work,
            "phases": [record.to_dict() for record in self.degradations],
        }
