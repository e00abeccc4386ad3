"""Deployment knobs for the mapping service (:mod:`repro.service`).

One frozen dataclass holds every tunable the server exposes; the CLI
builds it from ``mweaver serve`` flags and :meth:`ServiceConfig.validate`
turns inconsistent combinations into
:class:`~repro.exceptions.ServiceConfigError` (exit code 2) before any
socket is bound or dataset built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ServiceConfigError

#: Datasets the registry knows how to build, in CLI spelling.
KNOWN_DATASETS: tuple[str, ...] = ("running", "yahoo", "imdb")


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of the mapping service, validated as a whole.

    The defaults suit the running-example demo: a handful of worker
    threads, a small bounded queue (backpressure kicks in early rather
    than letting latency pile up), and generous-but-finite session
    lifetimes.
    """

    #: Bind address of the HTTP listener.
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (tests and the load bench use this).
    port: int = 8384
    #: Datasets preloaded into the registry at startup; sessions may
    #: only be created against one of these.
    datasets: tuple[str, ...] = ("running",)
    #: Movie count for the generated datasets (ignored by ``running``).
    scale: int = 150
    #: Hard cap on live sessions across all users.
    max_sessions: int = 64
    #: Idle seconds after which a session is evicted (TTL).
    session_ttl_s: float = 900.0
    #: Worker threads executing searches/prunes off the request thread.
    workers: int = 4
    #: Bounded work-queue depth; a full queue answers 429.
    queue_size: int = 32
    #: Per-request deadline for queued work (seconds).
    request_timeout_s: float = 10.0
    #: Entries in the cross-session LocateSample LRU (0 disables it).
    location_cache_size: int = 4096
    #: ``Retry-After`` hint (seconds) sent with 429 responses.
    retry_after_s: float = 1.0
    #: Default spreadsheet columns for sessions that do not name any.
    default_columns: tuple[str, ...] = field(
        default=("Name", "Director")
    )
    #: Directory for the crash-safe session journal (``None`` disables
    #: journaling; ``mweaver serve --journal-dir`` sets it).  On startup
    #: the journal is replayed and every live session restored.
    journal_dir: str | None = None
    #: Anytime-search budget per cell input (seconds).  ``None`` derives
    #: 80% of ``request_timeout_s``, so a slow search degrades into a
    #: best-effort 200 before the request deadline turns it into a 504.
    #: Set to 0 to disable the budget entirely (searches run to
    #: completion or the request deadline, whichever comes first).
    search_deadline_s: float | None = None
    #: Seconds graceful drain waits for in-flight work on SIGTERM.
    drain_timeout_s: float = 10.0
    #: Admission control: shed a request with 503 + ``Retry-After`` when
    #: its estimated queue wait exceeds ``shed_factor *
    #: request_timeout_s`` — fail fast instead of timing out late.
    #: 0 disables shedding (queue-full 429s still apply).
    shed_factor: float = 1.0
    #: Sampling-profiler frequency in Hz; 0 disables the profiler (the
    #: library default — ``mweaver serve`` turns it on at ~97 Hz).
    profile_hz: float = 0.0
    #: Flight-recorder ring capacity (requests kept for /debug); 0
    #: disables the recorder and the /debug/requests endpoints.
    recorder_capacity: int = 128
    #: Requests slower than this are auto-pinned by the flight recorder
    #: as "slow".  The default is a ``LATENCY_BUCKETS`` bound, so the
    #: request histograms count the same requests as slow.
    slow_request_s: float = 0.25
    #: Shard mode (``mweaver shard``): expose the cluster-internal
    #: surface — ``POST /admin/sessions/{id}/restore`` (coordinator
    #: ships a session's journaled grid here on failover) and
    #: ``GET /admin/digest`` (per-session grid digests for repair).
    #: Off by default: a standalone ``mweaver serve`` should not accept
    #: session overwrites from the network.  A shard keeps no journal
    #: (``journal_dir`` must be ``None``): its coordinator reseats it.
    shard_mode: bool = False

    @property
    def effective_search_deadline_s(self) -> float:
        """The search budget actually applied (0 = no budget)."""
        if self.search_deadline_s is None:
            return 0.8 * self.request_timeout_s
        return self.search_deadline_s

    def validate(self) -> "ServiceConfig":
        """Raise :class:`ServiceConfigError` on any bad knob; return self."""
        if not self.datasets:
            raise ServiceConfigError("at least one dataset must be preloaded")
        for dataset in self.datasets:
            if dataset not in KNOWN_DATASETS:
                raise ServiceConfigError(
                    f"unknown dataset {dataset!r} "
                    f"(expected one of {', '.join(KNOWN_DATASETS)})"
                )
        if len(set(self.datasets)) != len(self.datasets):
            raise ServiceConfigError("datasets must not repeat")
        if self.port < 0 or self.port > 65535:
            raise ServiceConfigError(f"port out of range: {self.port}")
        if self.scale <= 0:
            raise ServiceConfigError("scale must be positive")
        if self.max_sessions <= 0:
            raise ServiceConfigError("max_sessions must be positive")
        if self.workers <= 0:
            raise ServiceConfigError("workers must be positive")
        if self.queue_size <= 0:
            raise ServiceConfigError("queue_size must be positive")
        if self.session_ttl_s <= 0:
            raise ServiceConfigError("session_ttl_s must be positive")
        if self.request_timeout_s <= 0:
            raise ServiceConfigError("request_timeout_s must be positive")
        if self.session_ttl_s <= self.request_timeout_s:
            raise ServiceConfigError(
                "session_ttl_s must exceed request_timeout_s — otherwise "
                "a session can be evicted while its own request runs"
            )
        if self.location_cache_size < 0:
            raise ServiceConfigError("location_cache_size must be >= 0")
        if self.retry_after_s <= 0:
            raise ServiceConfigError("retry_after_s must be positive")
        if not self.default_columns:
            raise ServiceConfigError("default_columns must not be empty")
        if self.search_deadline_s is not None:
            if self.search_deadline_s < 0:
                raise ServiceConfigError(
                    "search_deadline_s must be >= 0 (0 disables the budget)"
                )
            if self.search_deadline_s >= self.request_timeout_s:
                raise ServiceConfigError(
                    "search_deadline_s must be below request_timeout_s — "
                    "a budget that outlives the request can never degrade "
                    "before the 504"
                )
        if self.drain_timeout_s < 0:
            raise ServiceConfigError("drain_timeout_s must be >= 0")
        if self.shed_factor < 0:
            raise ServiceConfigError(
                "shed_factor must be >= 0 (0 disables shedding)"
            )
        if self.profile_hz < 0:
            raise ServiceConfigError(
                "profile_hz must be >= 0 (0 disables the profiler)"
            )
        if self.recorder_capacity < 0:
            raise ServiceConfigError(
                "recorder_capacity must be >= 0 (0 disables the recorder)"
            )
        if self.slow_request_s <= 0:
            raise ServiceConfigError("slow_request_s must be positive")
        if self.shard_mode and self.journal_dir is not None:
            raise ServiceConfigError(
                "a shard keeps no journal (journal_dir must be None in "
                "shard_mode): the coordinator journal reseats it"
            )
        return self
