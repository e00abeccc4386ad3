"""Hierarchical span tracing for the TPW pipeline.

A :class:`Span` is one timed region of work — a search phase, a weave
level, a session interaction — carrying wall-clock *and* CPU time plus
arbitrary attributes (path counts, prune reasons, …).  Spans nest: the
:class:`Tracer` keeps a per-thread stack of open spans, so ``with
tracer.span("tpw.weave"):`` inside an open ``tpw.search`` span becomes
its child, and a finished search leaves one root span tree describing
exactly where the time went.

The module keeps a single shared handle (:func:`get_tracer`).  Tracing
is **off by default**: the handle is then a :class:`NullTracer` whose
``span()`` returns a bare :class:`Stopwatch` — it measures wall-clock
(the call sites still need real phase durations for
:class:`~repro.core.stats.SearchStats` and the Table 2 benchmark) but
records nothing, keeps no tree, reads no CPU clock and ignores
attributes.  The cost is exactly the two ``perf_counter()`` reads the
hand-rolled timing it replaced used to pay, which is what keeps the
disabled path from regressing Table-2-style response times.

Enable tracing globally with :func:`enable_tracing` (or
``REPRO_TRACE=1`` in the environment), or temporarily with
:func:`repro.obs.scoped`.

Span naming convention (see ``docs/observability.md``):

========================  =====================================================
``tpw.search``            one sample search (root); attrs ``columns``,
                          ``candidates``
``tpw.locate``            Algorithm 1; attrs ``hits_by_key``,
                          ``attribute_hits``, ``empty_keys``
``tpw.pairwise``          Algorithms 2–4; attr ``mapping_paths``
``tpw.instantiate``       §4.5.3; attrs ``valid_mapping_paths``,
                          ``tuple_paths``
``tpw.instantiate.pair``  one key pair's queries; attrs ``keys``,
                          ``mapping_paths``, ``tuple_paths``
``tpw.weave``             Algorithms 5–6; attrs ``pairwise_tuple_paths``,
                          ``complete_tuple_paths``
``tpw.weave.level``       one weave level; attrs ``level``, ``woven``, ``kept``
``tpw.rank``              §4.5.5; attr ``candidates``
``naive.search``          naive baseline root (children ``naive.locate`` /
                          ``naive.enumerate`` / ``naive.validate``)
``session.search``        first-row search inside a mapping session
``session.prune``         one incremental pruning interaction
``session.replay``        full pruning replay after an edit/undo/restore
``service.request``       one HTTP request to the mapping service; attrs
                          ``method``, ``route``, ``status``
========================  =====================================================

Cross-thread parentage: the open-span stack is thread-local, so a span
opened on a worker thread becomes a *root* even when the logical parent
(say a ``service.request``) is open on the request thread.
:meth:`Tracer.adopt` bridges the gap — the worker pushes the parent
span onto its own stack for the duration of the job, so spans it opens
nest under the adopted parent.  Only one thread may adopt a given span
at a time (the service's worker pool guarantees this by running each
request's work on exactly one worker).

Cross-*process* parentage: another process has its own tracer, so
``adopt`` cannot reach it.  :meth:`Tracer.graft` is the remote half of
the same idea — the remote side records spans locally and ships the
finished trees (see :func:`repro.obs.export.span_records`), and the
receiving thread grafts the rebuilt trees under its open span.  Spans
carry wall-clock epochs (:attr:`Span.start_epoch`) precisely so trees
stitched from different processes still order correctly.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

#: Cap per record list one span keeps (see :meth:`Span.record`).
#: Decision records are diagnostics, not storage: past the cap only the
#: drop count grows.
MAX_RECORDS = 200


class Span:
    """One timed, attributed region of work inside a span tree."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_epoch",
        "duration",
        "cpu_duration",
        "status",
        "error",
        "_tracer",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(self, name: str, attributes: dict[str, Any] | None = None,
                 *, tracer: "Tracer | None" = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        #: Wall-clock epoch seconds at which the span opened.
        self.start_epoch = time.time()
        #: Wall-clock seconds from open to finish (0.0 while open).
        self.duration = 0.0
        #: CPU (process) seconds from open to finish.
        self.cpu_duration = 0.0
        #: ``"open"`` → ``"ok"`` or ``"error"``.
        self.status = "open"
        #: ``"ExcType: message"`` when the span exited with an exception.
        self.error: str | None = None
        self._tracer = tracer
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()

    # -- attributes ----------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute; returns the span."""
        self.attributes[key] = value
        return self

    def add(self, key: str, amount: int | float = 1) -> "Span":
        """Increment a numeric attribute (missing counts as zero)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount
        return self

    def record(self, key: str, item: Any) -> "Span":
        """Append ``item`` to the list attribute ``key``, capped.

        The list keeps the first :data:`MAX_RECORDS` items; each one
        past the cap only increments ``<key>_dropped``.
        """
        items = self.attributes.setdefault(key, [])
        if len(items) < MAX_RECORDS:
            items.append(item)
        else:
            self.add(f"{key}_dropped")
        return self

    # -- lifecycle -----------------------------------------------------

    def finish(self, error: str | None = None) -> None:
        """Close the span, freezing its durations and status."""
        self.duration = time.perf_counter() - self._wall_start
        self.cpu_duration = time.process_time() - self._cpu_start
        self.error = error
        self.status = "error" if error else "ok"

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        error = f"{exc_type.__name__}: {exc}" if exc_type is not None else None
        self.finish(error)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False  # never swallow

    # -- traversal -----------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span's subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree, pre-order."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree, pre-order."""
        return [span for span in self.walk() if span.name == name]

    # -- reconstruction (exporter round-trips) -------------------------

    @classmethod
    def restored(
        cls,
        name: str,
        *,
        attributes: dict[str, Any] | None = None,
        start_epoch: float = 0.0,
        duration: float = 0.0,
        cpu_duration: float = 0.0,
        status: str = "ok",
        error: str | None = None,
    ) -> "Span":
        """Rebuild a finished span from exported fields (no clocks read)."""
        span = cls(name, attributes)
        span.start_epoch = start_epoch
        span.duration = duration
        span.cpu_duration = cpu_duration
        span.status = status
        span.error = error
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1000:.2f}ms, "
            f"{len(self.children)} children, {self.status})"
        )


class Stopwatch:
    """Timing-only stand-in returned by the disabled tracer.

    Call sites that feed :class:`~repro.core.stats.SearchStats` and the
    session's Table-2 timings still need real wall-clock durations when
    tracing is off; a ``Stopwatch`` provides exactly that — two
    ``perf_counter()`` reads, the same cost as the hand-rolled timing it
    replaced — and turns everything else (attributes, CPU clock, tree
    bookkeeping) into no-ops.
    """

    __slots__ = ("duration", "_start")

    name = ""
    children: tuple = ()
    status = "disabled"
    error = None
    cpu_duration = 0.0

    @property
    def attributes(self) -> dict[str, Any]:
        """Always empty: the disabled tracer keeps no attributes."""
        return {}

    def set(self, _key: str, _value: Any) -> "Stopwatch":
        """No-op attribute write; returns the stopwatch."""
        return self

    def add(self, _key: str, _amount: int | float = 1) -> "Stopwatch":
        """No-op attribute increment; returns the stopwatch."""
        return self

    def record(self, _key: str, _item: Any) -> "Stopwatch":
        """No-op record append; returns the stopwatch."""
        return self

    def __enter__(self) -> "Stopwatch":
        self.duration = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        self.duration = time.perf_counter() - self._start
        return False


class Tracer:
    """Collects span trees; thread-safe via per-thread open-span stacks."""

    enabled = True

    def __init__(self, max_roots: int | None = None) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        #: Retention cap for finished roots (oldest dropped beyond it).
        #: ``None`` (the default) keeps everything — right for scoped
        #: CLI traces; the always-on service sets a cap so a long-lived
        #: tracer cannot grow without bound.
        self.max_roots = max_roots

    # -- open-span stack -----------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exception skipped some __exit__; be lenient
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
                self._trim_locked()

    def _trim_locked(self) -> None:
        if self.max_roots is not None and len(self._roots) > self.max_roots:
            del self._roots[: len(self._roots) - self.max_roots]

    # -- public API ----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a new span as a context manager, nested under the
        current thread's innermost open span."""
        return Span(name, attributes or None, tracer=self)

    @contextlib.contextmanager
    def adopt(self, span: Span | None) -> Iterator[Span | None]:
        """Parent this thread's spans under ``span`` (opened elsewhere).

        Pushes an already-open span onto *this* thread's stack without
        taking ownership: leaving the block pops it again but does not
        finish it or re-file it under a parent — the opening thread's
        ``__exit__`` still does that.  ``adopt(None)`` is a no-op, so
        call sites can pass through an optional parent unconditionally.
        """
        if span is None:
            yield None
            return
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # a child leaked an unbalanced exit
                stack.remove(span)

    def graft(self, spans: "list[Span] | tuple[Span, ...]") -> None:
        """Adopt *finished* spans produced elsewhere — another process,
        a deserialized trace — into this thread's current position.

        Where :meth:`adopt` bridges threads sharing one tracer, ``graft``
        bridges *tracers*: span trees recorded in another process (say a
        cluster shard's request tree, rebuilt with
        :func:`repro.obs.export.records_to_spans`) land under the span
        open on this thread, so a request that crossed processes still
        yields one stitched trace.  With no span open the trees become
        roots (they are already finished, so they go straight to
        :attr:`finished`).
        """
        if not spans:
            return
        current = self.current()
        if current is not None:
            current.children.extend(spans)
        else:
            with self._lock:
                self._roots.extend(spans)
                self._trim_locked()

    def release(self, spans: "list[Span] | tuple[Span, ...]") -> None:
        """Forget specific finished roots (spans absent are ignored).

        The service's flight recorder takes ownership of each request's
        root span after the request closes; releasing it here keeps the
        always-on tracer's memory proportional to ``max_roots``, not to
        uptime.
        """
        with self._lock:
            for span in spans:
                try:
                    self._roots.remove(span)
                except ValueError:
                    pass

    def current(self) -> Span | None:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def finished(self) -> tuple[Span, ...]:
        """All finished root spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def reset(self) -> None:
        """Drop every collected root span (open spans are unaffected)."""
        with self._lock:
            self._roots.clear()


class NullTracer:
    """The disabled tracer: no tree, no attributes, no CPU accounting."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> Stopwatch:
        """A fresh :class:`Stopwatch` — wall-clock only, never recorded."""
        return Stopwatch()

    @contextlib.contextmanager
    def adopt(self, span: Any = None) -> Iterator[None]:
        """No-op adoption (the disabled tracer keeps no stacks)."""
        yield None

    def graft(self, spans: Any = ()) -> None:
        """No-op grafting (the disabled tracer records nothing)."""

    def release(self, spans: Any = ()) -> None:
        """No-op release (the disabled tracer holds nothing)."""

    def current(self) -> None:
        """Always ``None``: the disabled tracer keeps no open-span stack."""
        return None

    @property
    def finished(self) -> tuple[Span, ...]:
        """Always empty: the disabled tracer records nothing."""
        return ()

    def reset(self) -> None:
        """No-op (nothing is ever collected)."""


_NULL_TRACER = NullTracer()
_tracer: Tracer | NullTracer = _NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The shared tracer handle every instrumented call site consults."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the shared handle (returns it)."""
    global _tracer
    _tracer = tracer
    return tracer


def enable_tracing() -> Tracer:
    """Switch the shared handle to a live :class:`Tracer` (idempotent)."""
    if not isinstance(_tracer, Tracer):
        set_tracer(Tracer())
    return _tracer  # type: ignore[return-value]


def disable_tracing() -> None:
    """Switch the shared handle back to the no-op tracer."""
    set_tracer(_NULL_TRACER)


def tracing_enabled() -> bool:
    """Whether the shared handle records spans."""
    return _tracer.enabled


def traced(name: str | None = None) -> Callable:
    """Decorator: run the function inside a span on the shared tracer.

    ``@traced()`` uses the function's qualified name; ``@traced("x.y")``
    overrides it.  With tracing disabled the overhead is one Stopwatch.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with get_tracer().span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
