"""``repro.cluster`` — the fault-tolerant sharded mapping tier.

A coordinator routes mapping sessions across N replicated
``mweaver shard`` backends (each a full :mod:`repro.service` stack),
turning the single-node service into a cluster that survives any
single shard's ``kill -9`` without losing accepted session state:

* :mod:`repro.cluster.ring` — consistent hashing with R-way replica
  sets; session placement that stays stable across shard churn,
* :mod:`repro.cluster.client` — keep-alive shard clients that turn
  transport failures into typed routing signals,
* :mod:`repro.cluster.health` — heartbeat probes and routed calls
  feeding one consecutive-failure count per shard: down after
  ``failure_threshold`` failures, back after ``readmit_threshold``
  successes,
* :mod:`repro.cluster.coordinator` — session routing with journal-
  replay failover,
* :mod:`repro.cluster.reconcile` — the one level-triggered loop that
  keeps every session's replicas equal to its ring replica set:
  replica shipping, placement moves after live membership changes
  (the ``/admin/shards`` join/decommission API), and periodic
  anti-entropy digest scans,
* :mod:`repro.cluster.spawn` — subprocess harness for real topologies
  (chaos tests, the failover bench, CI smoke),
* :mod:`repro.cluster.supervisor` — crashed-shard respawn with seeded
  jittered backoff; re-admission rides the heartbeats' healthy streak.

The coordinator speaks the same HTTP surface as ``mweaver serve``, so
existing clients, the load bench and ``mweaver top`` work against it
unchanged; durability comes from journaling accepted mutations through
the same :class:`repro.resilience.SessionJournal` ``mweaver serve``
uses.  The shards keep no journal: the coordinator reseats them.
"""

from __future__ import annotations

from repro.cluster.client import (
    HttpShardClient,
    InProcessShardClient,
    ShardReply,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import ClusterSession, CoordinatorApp
from repro.cluster.health import HealthMonitor
from repro.cluster.reconcile import Reconciler, RepairScan
from repro.cluster.ring import HashRing
from repro.cluster.spawn import (
    CoordinatorProcess,
    ServerProcess,
    ShardProcess,
)
from repro.cluster.supervisor import ShardSupervisor
from repro.resilience.journal import grid_digest

__all__ = [
    "ClusterConfig",
    "CoordinatorApp",
    "ClusterSession",
    "Reconciler",
    "RepairScan",
    "ShardSupervisor",
    "HashRing",
    "HealthMonitor",
    "ShardReply",
    "HttpShardClient",
    "InProcessShardClient",
    "ServerProcess",
    "ShardProcess",
    "CoordinatorProcess",
    "grid_digest",
]
