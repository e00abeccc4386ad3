"""Deployment knobs for the cluster coordinator (:mod:`repro.cluster`).

Mirrors :class:`repro.service.config.ServiceConfig` in shape: one
frozen dataclass, built by ``mweaver cluster`` flags, validated as a
whole into :class:`~repro.exceptions.ServiceConfigError` before any
socket is bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ServiceConfigError
from repro.service.config import KNOWN_DATASETS


@dataclass(frozen=True)
class ClusterConfig:
    """Every tunable of the coordinator, validated as a whole."""

    #: Bind address of the coordinator's HTTP listener.
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (tests and the load bench use this).
    port: int = 8380
    #: Shard backends as ``host:port`` addresses (``mweaver shard``
    #: processes).  Order is only cosmetic — placement comes from the
    #: consistent-hash ring.
    shards: tuple[str, ...] = ()
    #: Replica-set size R: each session lives on this many shards
    #: (primary + R-1 failover targets).  Clamped to the shard count.
    replication: int = 2
    #: Virtual nodes per shard on the hash ring.
    vnodes: int = 64
    #: Datasets sessions may be created against (the shards must serve
    #: the same set).
    datasets: tuple[str, ...] = ("running",)
    #: Default spreadsheet columns for sessions that do not name any.
    default_columns: tuple[str, ...] = field(default=("Name", "Director"))
    #: Hard cap on live sessions across the cluster.
    max_sessions: int = 256
    #: Seconds between health-probe rounds against each shard.
    heartbeat_interval_s: float = 0.5
    #: Consecutive probe/call failures that mark a shard down.
    failure_threshold: int = 3
    #: Consecutive healthy probes a tripped shard must answer before it
    #: is re-admitted to routing (the sustained-healthy window that
    #: keeps a flapping shard from oscillating in and out every round).
    readmit_threshold: int = 2
    #: Per-shard-call timeout (seconds) for proxied requests.
    request_timeout_s: float = 10.0
    #: Directory for the coordinator's crash-safe session journal, the
    #: cluster's only durable store (``None`` disables journaling: a
    #: coordinator restart then loses every session).
    journal_dir: str | None = None
    #: ``Retry-After`` hint (seconds) for shard_down/drain refusals.
    retry_after_s: float = 1.0
    #: Seconds graceful drain waits for in-flight requests on SIGTERM.
    drain_timeout_s: float = 10.0
    #: Seconds between the reconciler's anti-entropy digest scans
    #: (each shard's ``/admin/digest`` against the coordinator's grids;
    #: 0 disables scans, event-driven reconcile passes still run).
    repair_interval_s: float = 2.0

    def validate(self) -> "ClusterConfig":
        """Raise :class:`ServiceConfigError` on any bad knob; return self."""
        if not self.shards:
            raise ServiceConfigError(
                "cluster needs at least one shard address"
            )
        if len(set(self.shards)) != len(self.shards):
            raise ServiceConfigError("shard addresses must not repeat")
        for shard in self.shards:
            host, _, port = shard.rpartition(":")
            if not host or not port.isdigit():
                raise ServiceConfigError(
                    f"shard address {shard!r} is not host:port"
                )
        if self.port < 0 or self.port > 65535:
            raise ServiceConfigError(f"port out of range: {self.port}")
        if self.replication < 1:
            raise ServiceConfigError("replication must be >= 1")
        if self.vnodes < 1:
            raise ServiceConfigError("vnodes must be >= 1")
        if not self.datasets:
            raise ServiceConfigError("at least one dataset must be served")
        for dataset in self.datasets:
            if dataset not in KNOWN_DATASETS:
                raise ServiceConfigError(
                    f"unknown dataset {dataset!r} "
                    f"(expected one of {', '.join(KNOWN_DATASETS)})"
                )
        if len(set(self.datasets)) != len(self.datasets):
            raise ServiceConfigError("datasets must not repeat")
        if not self.default_columns:
            raise ServiceConfigError("default_columns must not be empty")
        if self.max_sessions <= 0:
            raise ServiceConfigError("max_sessions must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ServiceConfigError("heartbeat_interval_s must be positive")
        if self.failure_threshold < 1:
            raise ServiceConfigError("failure_threshold must be >= 1")
        if self.request_timeout_s <= 0:
            raise ServiceConfigError("request_timeout_s must be positive")
        if self.retry_after_s <= 0:
            raise ServiceConfigError("retry_after_s must be positive")
        if self.drain_timeout_s < 0:
            raise ServiceConfigError("drain_timeout_s must be >= 0")
        if self.readmit_threshold < 1:
            raise ServiceConfigError("readmit_threshold must be >= 1")
        if self.repair_interval_s < 0:
            raise ServiceConfigError(
                "repair_interval_s must be >= 0 (0 disables repair)"
            )
        return self
