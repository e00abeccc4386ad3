"""Always-on sampling profiler: periodic stack snapshots, folded output.

A single daemon thread wakes ~``hz`` times a second, grabs every
thread's current frame via :func:`sys._current_frames`, and folds each
stack into the collapsed form flamegraph tools eat::

    server.py:serve_forever;app.py:handle;weave.py:search 1423

Costs are what make it viable always-on: one pass over the frame dict
per tick (no tracing hooks, no per-call overhead — code under profile
runs at full speed between ticks), aggregation into a bounded dict of
folded-stack counters.  At the default ~97 Hz the sampler itself
typically burns well under 1% of one core; the served workloads of
``perfbench/run.py`` run with it on, so their numbers include its cost.

The sampler excludes its own thread, and can exclude others (the HTTP
acceptor, metrics pollers) by registered thread id.  ``hz`` defaults to
97, deliberately off a round number so periodic work running at 10/50/
100 Hz doesn't alias into phantom hot frames.
"""

from __future__ import annotations

import sys
import threading
import time
from types import FrameType
from typing import Any

#: Keep at most this many distinct folded stacks; beyond it, new stacks
#: collapse into the ``(other)`` bucket so memory stays bounded.
MAX_STACKS = 4096

#: Frames deeper than this are truncated (marker kept) when folding.
MAX_DEPTH = 64


def fold_frame(frame: FrameType | None, max_depth: int = MAX_DEPTH) -> str:
    """Fold one thread's stack into ``outer;...;inner`` collapsed form."""
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    if frame is not None:
        parts.append("(truncated)")
    parts.reverse()
    return ";".join(parts) if parts else "(idle)"


class SamplingProfiler:
    """The ~100 Hz stack sampler behind ``GET /debug/profile``."""

    def __init__(self, hz: float = 97.0) -> None:
        if hz <= 0:
            raise ValueError("profiler hz must be positive")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._samples = 0
        self._started_epoch: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._excluded: set[int] = set()

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (idempotent); returns self."""
        if self.running:
            return self
        self._stop.clear()
        self._started_epoch = time.time()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread and wait for it to exit."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def exclude_thread(self, thread_id: int | None = None) -> None:
        """Skip ``thread_id`` (default: the calling thread) in samples."""
        self._excluded.add(
            thread_id if thread_id is not None else threading.get_ident()
        )

    # -- sampling ------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self._interval):
            frames = sys._current_frames()
            with self._lock:
                self._samples += 1
                for thread_id, frame in frames.items():
                    if thread_id == own_id or thread_id in self._excluded:
                        continue
                    stack = fold_frame(frame)
                    if stack in self._stacks or len(self._stacks) < MAX_STACKS:
                        self._stacks[stack] = self._stacks.get(stack, 0) + 1
                    else:
                        self._stacks["(other)"] = (
                            self._stacks.get("(other)", 0) + 1
                        )

    # -- reading -------------------------------------------------------

    def folded(self, *, top: int | None = None) -> str:
        """Collapsed-stack text: one ``stack count`` line, hottest first.

        The exact format ``flamegraph.pl`` / speedscope ingest.
        """
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        if top is not None:
            items = items[:top]
        return "\n".join(f"{stack} {count}" for stack, count in items) + (
            "\n" if items else ""
        )

    def snapshot(self, *, top: int = 25) -> dict[str, Any]:
        """JSON view: sample counts, rate, and the hottest stacks."""
        with self._lock:
            samples = self._samples
            distinct = len(self._stacks)
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )[:top]
        elapsed = (
            time.time() - self._started_epoch if self._started_epoch else 0.0
        )
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": samples,
            "elapsed_s": elapsed,
            "distinct_stacks": distinct,
            "top": [
                {"stack": stack, "count": count} for stack, count in items
            ],
        }

    def reset(self) -> None:
        """Drop every aggregated stack (the sampler keeps running)."""
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            self._started_epoch = time.time() if self.running else None
