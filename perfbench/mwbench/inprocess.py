"""In-process service and cluster instances, timed at each layer's entry.

The traced HTTP runs build the same topology the spawned processes run
-- a journaling ``ServiceApp``, or a journaling ``CoordinatorApp`` at
R=2 over two shard-mode ``ServiceApp`` backends -- with the ``serve``
defaults (metrics on, always-on tracing, the 97 Hz profiler), behind
real loopback ``MappingServer`` listeners (and, like the spawned
cluster, periodic anti-entropy repair off).  While one is up, the
benchmark wraps ``ServiceApp.handle``, ``CoordinatorApp.handle``,
``MappingSession.input`` and ``SessionJournal.record_*`` to time each
call; the wrappers are removed when it closes.  They are installed
before the apps are built, so callbacks the apps bind at construction
(the session manager's ``record_delete``) are wrapped too.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro import obs
from repro.cluster import ClusterConfig, CoordinatorApp
from repro.core.session import MappingSession
from repro.datasets.running_example import build_running_example
from repro.resilience.journal import SessionJournal
from repro.service import MappingServer, ServiceApp, ServiceConfig

from mwbench import checks
from mwbench.core import CoreAttribution, run_flow
from mwbench.loadgen import wait_ready

#: Seconds between the cluster's anti-entropy repair rounds, in-process
#: and spawned: 0, off, because a repair ship can roll back a cell
#: accepted while it is in flight (``perfbench/tests/test_repair_race.py``).
#: A fault-free run gives repair nothing to mend; the cluster workload
#: measures routing, the shard hop and replica shipping.
REPAIR_INTERVAL_S = 0
#: The ``mweaver serve`` defaults that differ from ``ServiceConfig``'s.
PROFILE_HZ = 97.0
TRACE_ROOTS = 256
#: Flows replayed through the core attribution on running-example inputs.
CORE_FLOWS = 200

_JOURNAL_METHODS = ("record_create", "record_cell", "record_delete")


class _Timer:
    """Sums the durations of the calls it wraps (thread-safe)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        """Count one call of ``seconds``."""
        with self.lock:
            self.calls += 1
            self.seconds += seconds

    def mean_ms(self) -> float:
        """Mean milliseconds per call."""
        return self.seconds * 1000 / self.calls if self.calls else 0.0


class InProcessTopology:
    """A service (``kind="service"``) or cluster (``"cluster"``) in-process.

    The wrappers stay installed while it is up; :meth:`condition`
    chooses whether they time (into that condition's timers) or pass
    straight through, and whether metrics are on, so conditions can be
    interleaved on one topology and share the host's drift.
    """

    LAYERS = ("handle", "front_handle", "input", "journal")

    def __init__(self, kind: str, work_dir: Path) -> None:
        self.kind = kind
        self.work_dir = work_dir
        self.timers: dict[str, dict[str, _Timer]] = {}
        self._active: dict[str, _Timer] | None = None
        self._patches: list[tuple[type, str, object]] = []
        self._servers: list[MappingServer] = []
        self._previous_obs = None
        self._registry = None
        self.address = ""

    def _patch(self, cls: type, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))

        @functools.wraps(original)
        def timed(*args, **kwargs):
            timers = self._active
            if timers is None:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                timers[layer].add(time.perf_counter() - started)

        setattr(cls, name, timed)

    def __enter__(self) -> "InProcessTopology":
        self._previous_obs = (obs.get_tracer(), obs.get_metrics())
        obs.set_tracer(obs.Tracer(max_roots=TRACE_ROOTS))
        self._registry = obs.enable_metrics()
        try:
            self._patch(ServiceApp, "handle", "handle")
            self._patch(CoordinatorApp, "handle", "front_handle")
            self._patch(MappingSession, "input", "input")
            for name in _JOURNAL_METHODS:
                self._patch(SessionJournal, name, "journal")
            self._start()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _start(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.kind == "service":
            app = ServiceApp(ServiceConfig(
                port=0, journal_dir=str(self.work_dir), profile_hz=PROFILE_HZ,
            ))
            self._servers.append(MappingServer(app).start())
        else:
            shards = []
            for _ in range(2):
                shard = ServiceApp(ServiceConfig(
                    port=0, shard_mode=True, profile_hz=PROFILE_HZ,
                ))
                server = MappingServer(shard).start()
                self._servers.append(server)
                shards.append(f"{server.host}:{server.port}")
            coordinator = CoordinatorApp(ClusterConfig(
                port=0, shards=tuple(shards), replication=2,
                journal_dir=str(self.work_dir),
                repair_interval_s=REPAIR_INTERVAL_S,
            ))
            self._servers.insert(0, MappingServer(coordinator).start())
        front = self._servers[0]
        self.address = f"{front.host}:{front.port}"
        wait_ready(self.address, time.perf_counter() + 30)

    @contextmanager
    def condition(self, name: str, *, timed: bool, metrics: bool):
        """Run the block timing into ``name``'s timers (if ``timed``)."""
        timers = self.timers.setdefault(
            name, {layer: _Timer() for layer in self.LAYERS}
        )
        self._active = timers if timed else None
        if metrics:
            obs.set_metrics(self._registry)
        else:
            obs.disable_metrics()
        try:
            yield
        finally:
            self._active = None
            obs.set_metrics(self._registry)

    def timings(self, name: str) -> dict[str, float]:
        """Mean ms per call of each layer entry point under ``name``.

        ``front_handle_ms`` is the handle time of the app clients talk
        to: the coordinator in a cluster, the service otherwise.
        """
        out = {
            f"{layer}_ms": timer.mean_ms()
            for layer, timer in self.timers[name].items()
        }
        if self.kind == "service":
            out["front_handle_ms"] = out["handle_ms"]
        return out

    def __exit__(self, *_exc) -> None:
        for server in self._servers:
            server.shutdown()
        self._servers.clear()
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()
        if self._previous_obs is not None:
            obs.set_tracer(self._previous_obs[0])
            obs.set_metrics(self._previous_obs[1])
            self._previous_obs = None


def running_core_attribution() -> CoreAttribution:
    """The core attribution on the HTTP workloads' own inputs."""
    db = build_running_example()
    attribution = CoreAttribution()
    for _ in range(CORE_FLOWS):
        run_flow(
            lambda: MappingSession(db, ("Name", "Director")),
            lambda _session: iter(checks.RUNNING_CELLS),
            checks.RUNNING_GOAL,
            attribution,
            key=lambda mapping: mapping.describe(),
        )
    return attribution
