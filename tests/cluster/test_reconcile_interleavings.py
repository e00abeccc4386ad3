"""Seeded, replayable interleavings of writes, faults and reconcile passes.

Each seed drives a ``random.Random`` through a schedule over in-process
shards at R=2: session creates, writes and deletes; shards going down,
coming back, and coming back empty (a restart); live joins and
decommissions; and reconcile passes and repair scans.  Reads during the
schedule must already serve every accepted cell, also after a shard
applied a call whose reply was lost.  Once faults stop and
the reconciler settles, every session must sit on its ring replica set
with every accepted cell, the shards' ``/admin/digest`` must agree with
the coordinator's grid, and the candidates must equal a single-node
run over the same grid.

A failure names its seed and the last steps; replay one seed with
``pytest tests/cluster/test_reconcile_interleavings.py -k seed7``.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.cluster import grid_digest
from repro.exceptions import ShardUnavailableError
from repro.service.app import ServiceApp
from repro.service.config import ServiceConfig

SEEDS = range(24)
STEPS = 200
#: Live sessions the schedule keeps at most.
MAX_SESSIONS = 5
#: Ring members the schedule keeps between (joins and decommissions).
MIN_SHARDS, MAX_SHARDS = 2, 4
#: Cells the schedule writes; the shards decide which ones apply.
CELLS = (
    (0, 0, "Avatar"),
    (0, 1, "James Cameron"),
    (1, 0, "Big Fish"),
    (1, 1, "Tim Burton"),
    (2, 0, "Titanic"),
    (2, 1, "James Cameron"),
    (1, 0, "  Big Fish "),
    (2, 0, ""),
)
ACTIONS = (
    ("create", 2), ("write", 8), ("read", 2), ("delete", 1),
    ("down", 1), ("up", 1), ("restart", 1), ("lose_reply", 1), ("probe", 1),
    ("join", 1), ("decommission", 1), ("pass", 3), ("repair", 1),
)


class Schedule:
    """One seed's run against one cluster, with the model it checks."""

    def __init__(self, seed, coordinator, apps, clients):
        self.rng = random.Random(seed)
        self.coordinator = coordinator
        self.apps = apps
        self.clients = clients
        #: Accepted grid per live session: what the cluster must keep.
        self.model: dict[str, dict[tuple[int, int], str]] = {}
        self.trace: list[str] = []
        self.next_port = 9200
        #: Shards whose next reply is lost after the call took effect.
        self.lossy: set[str] = set()

    def run(self, steps: int) -> None:
        names = [name for name, _ in ACTIONS]
        weights = [weight for _, weight in ACTIONS]
        for step in range(steps):
            action = self.rng.choices(names, weights)[0]
            detail = getattr(self, f"do_{action}")()
            self.trace.append(f"{step}: {action} {detail or ''}".rstrip())

    # -- actions -------------------------------------------------------

    def do_create(self):
        if len(self.model) >= MAX_SESSIONS:
            return "skipped"
        status, body, _ = self.coordinator.handle("POST", "/sessions", {}, {})
        if status == 201:
            self.model[body["session_id"]] = {}
            return body["session_id"]
        return status

    def pick_session(self):
        if not self.model:
            return None
        return self.rng.choice(sorted(self.model))

    def do_write(self):
        session_id = self.pick_session()
        if session_id is None:
            return "skipped"
        grid = self.model[session_id]
        # Later rows are refused until the first row is complete.
        first_row = (0, 0) in grid and (0, 1) in grid
        row, column, value = self.rng.choice(CELLS if first_row else CELLS[:2])
        status, body, _ = self.coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": row, "column": column, "value": value},
        )
        if status == 200 and body["applied"]:
            if value.strip():
                self.model[session_id][(row, column)] = value.strip()
            else:
                self.model[session_id].pop((row, column), None)
        return f"{session_id} ({row},{column})={value!r} -> {status}"

    def do_read(self):
        session_id = self.pick_session()
        if session_id is None:
            return "skipped"
        status, text, _ = self.coordinator.handle(
            "GET", f"/sessions/{session_id}", {}, None
        )
        if status == 200:
            samples = json.loads(text)["samples"]
            assert samples == len(self.model[session_id]), (
                f"{session_id} served {samples} sample(s), accepted "
                f"{self.model[session_id]}"
            )
        return f"{session_id} -> {status}"

    def do_delete(self):
        session_id = self.pick_session()
        if session_id is None:
            return "skipped"
        status, _, _ = self.coordinator.handle(
            "DELETE", f"/sessions/{session_id}", {}, None
        )
        assert status == 204
        del self.model[session_id]
        return session_id

    def members(self):
        return sorted(self.coordinator.clients)

    def do_down(self):
        shard = self.rng.choice(self.members())
        self.clients[shard].down = True
        return shard

    def do_up(self):
        down = [s for s in self.members() if self.clients[s].down]
        if not down:
            return "skipped"
        shard = self.rng.choice(down)
        self.clients[shard].down = False
        return shard

    def do_restart(self):
        """The shard comes back with nothing: every session is gone."""
        shard = self.rng.choice(self.members())
        app = self.apps[shard]
        for session_id in app.sessions.ids():
            app.sessions.remove(session_id)
        self.clients[shard].down = False
        return shard

    def do_lose_reply(self):
        """The shard's next call takes effect, but its reply is lost."""
        shard = self.rng.choice(self.members())
        client = self.clients[shard]
        if not hasattr(client, "lossless_call"):
            client.lossless_call = client.call

            def call(method, path, query=None, body=None):
                reply = client.lossless_call(method, path, query, body)
                if shard in self.lossy:
                    self.lossy.discard(shard)
                    raise ShardUnavailableError(shard, "reply lost")
                return reply

            client.call = call
        self.lossy.add(shard)
        return shard

    def do_probe(self):
        self.coordinator.health.probe_once()

    def do_join(self):
        if len(self.coordinator.ring.shards) >= MAX_SHARDS:
            return "skipped"
        leaving = sorted(self.coordinator._decommissioning)
        if leaving and self.rng.random() < 0.5:
            address = self.rng.choice(leaving)  # rejoin cancels the drain
        else:
            address = f"127.0.0.1:{self.next_port}"
            self.next_port += 1
        status, body, _ = self.coordinator.handle(
            "POST", "/admin/shards", {}, {"address": address}
        )
        assert status == 201, body
        return address

    def do_decommission(self):
        ring = sorted(self.coordinator.ring.shards)
        if len(ring) <= MIN_SHARDS:
            return "skipped"
        shard = self.rng.choice(ring)
        status, body, _ = self.coordinator.handle(
            "DELETE", f"/admin/shards/{shard}", {}, None
        )
        assert status == 202, body
        return shard

    def do_pass(self):
        budget = self.rng.choice((0, 1, 2))
        return self.coordinator.reconciler.run_pass(max_work=budget)

    def do_repair(self):
        return self.coordinator.reconciler.repair().to_dict()["converged"]

    # -- settling and the invariant ------------------------------------

    def settle(self) -> None:
        self.lossy.clear()
        for client in self.clients.values():
            client.down = False
        self.coordinator.health.probe_once()
        self.coordinator.health.probe_once()
        reconciler = self.coordinator.reconciler
        for _ in range(20):
            report = reconciler.repair()
            if report.converged and reconciler.pending() == 0:
                return
        raise AssertionError(
            f"never settled: last scan {report.to_dict()}, "
            f"{reconciler.pending()} pending"
        )

    def check(self, registry) -> None:
        coordinator = self.coordinator
        assert sorted(coordinator._sessions) == sorted(self.model)
        assert not coordinator._decommissioning
        for session_id, accepted in self.model.items():
            session = coordinator._session(session_id)
            assert session.cells == accepted, session_id
            desired = coordinator.ring.replica_set(session_id)
            assert session.replicas == desired, session_id
            assert session.primary in desired, session_id
            for shard in desired:
                _, payload, _ = self.apps[shard].handle(
                    "GET", "/admin/digest", {}, None
                )
                entry = payload["sessions"].get(session_id)
                assert entry is not None, f"{shard} lacks {session_id}"
                assert entry["digest"] == grid_digest(accepted), (
                    f"{shard} holds a different grid for {session_id}"
                )
        single = ServiceApp(
            ServiceConfig(datasets=("running",), workers=1),
            registry=registry,
        )
        try:
            for session_id, accepted in self.model.items():
                assert candidates(coordinator, session_id) == (
                    single_node_candidates(single, accepted)
                ), f"{session_id} answers differently from one node"
        finally:
            single.close()


def candidates(app, session_id):
    status, body, _ = app.handle(
        "GET", f"/sessions/{session_id}/candidates",
        {"limit": "3", "sql": "1"}, None,
    )
    assert status == 200, body
    body = json.loads(body) if isinstance(body, str) else body
    return body["status"], body["candidates"]


def single_node_candidates(app, grid):
    status, body, _ = app.handle("POST", "/sessions", {}, {})
    assert status == 201, body
    session_id = body["session_id"]
    for (row, column), value in sorted(grid.items()):
        status, body, _ = app.handle(
            "POST", f"/sessions/{session_id}/cells", {},
            {"row": row, "column": column, "value": value},
        )
        assert status == 200 and body["applied"], body
    return candidates(app, session_id)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_interleavings_converge_without_losing_accepted_cells(
    seed, make_cluster, cluster_registry, monkeypatch
):
    # Session ids carry random bytes that decide ring placement: draw
    # them from the seed too, so a seed replays the same placements.
    monkeypatch.setattr(os, "urandom", random.Random(-seed).randbytes)
    coordinator, apps, clients = make_cluster(n_shards=3, replication=2)
    schedule = Schedule(seed, coordinator, apps, clients)
    try:
        schedule.run(STEPS)
        schedule.settle()
        schedule.check(cluster_registry)
    except AssertionError as error:
        recent = "\n  ".join(schedule.trace[-12:])
        raise AssertionError(
            f"seed {seed}: {error}\n  last steps:\n  {recent}\n"
            f"replay: pytest {__file__} -k seed{seed}"
        ) from error
