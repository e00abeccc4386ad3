"""Regression tests: a cell accepted while a replica ship is in flight survives.

The first two tests stall one restore ship and, while it is stalled,
send a write for the same session from another thread.  A reconciler
that copies the grid, releases the session lock and then ships lets
that write land first and rolls it back (or leaves it off the new
primary); one that holds the session lock across ship and placement
switch makes the write wait and apply afterwards.  The last test runs
writers, the reconciler and shards that lose sessions all at once.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

from repro.cluster import grid_digest
from tests.cluster.conftest import run_flow

#: How long a stalled ship waits for the concurrent write to finish.
WRITE_WAIT_S = 0.5
#: A cell the running example accepts after the flow's two rows.
EXTRA_CELL = {"row": 2, "column": 0, "value": "Titanic"}


def stall_ship_to(coordinator, shard):
    """Make the next ship to ``shard`` wait while a cell is written.

    Returns the writer's result dict, filled with ``reply`` once the
    write returns.
    """
    result: dict = {}
    session_id = next(iter(coordinator._sessions))

    def write():
        result["reply"] = coordinator.handle(
            "POST", f"/sessions/{session_id}/cells", {}, dict(EXTRA_CELL)
        )

    writer = threading.Thread(target=write)
    result["writer"] = writer
    ship = coordinator._ship_restore

    def stalled_ship(target, ship_session_id, payload):
        if target == shard and not writer.is_alive() and "reply" not in result:
            writer.start()
            writer.join(WRITE_WAIT_S)
        return ship(target, ship_session_id, payload)

    coordinator._ship_restore = stalled_ship
    return result


def served_samples(coordinator, session_id):
    status, text, _ = coordinator.handle(
        "GET", f"/sessions/{session_id}", {}, None
    )
    assert status == 200, text
    return json.loads(text)["samples"]


def shard_digest(apps, shard, session_id):
    _, payload, _ = apps[shard].handle("GET", "/admin/digest", {}, None)
    entry = payload["sessions"].get(session_id)
    return entry["digest"] if entry else None


def test_a_cell_accepted_during_a_repair_ship_to_the_primary_survives(
    make_cluster,
):
    coordinator, apps, _ = make_cluster(n_shards=2)
    session_id, _ = run_flow(coordinator)
    session = coordinator._session(session_id)
    primary = session.primary
    # The primary loses the session, so the next digest scan reseats
    # the primary itself.
    apps[primary].sessions.remove(session_id)
    result = stall_ship_to(coordinator, primary)

    status, body, _ = coordinator.handle("POST", "/admin/repair", {}, None)
    assert status == 200, body
    result["writer"].join()

    status, body, _ = result["reply"]
    assert status == 200 and body["applied"] is True, body
    assert (2, 0) in session.cells
    assert session.primary == primary
    assert shard_digest(apps, primary, session_id) == grid_digest(
        session.cells
    ), "accepted cell was rolled back on the primary"
    assert served_samples(coordinator, session_id) == len(session.cells)


def test_a_cell_accepted_during_a_move_reaches_the_new_primary(
    make_cluster,
):
    coordinator, apps, _ = make_cluster(n_shards=3)
    session_id, _ = run_flow(coordinator)
    coordinator.reconciler.run_pass()
    session = coordinator._session(session_id)
    old_primary = session.primary
    # Decommissioning the primary moves the session onto the two other
    # shards; the one that never held it gets a ship.
    newcomer = next(
        shard for shard in coordinator.config.shards
        if shard not in session.replicas
    )
    status, body, _ = coordinator.handle(
        "DELETE", f"/admin/shards/{old_primary}", {}, None
    )
    assert status == 202, body
    result = stall_ship_to(coordinator, newcomer)

    coordinator.reconciler.run_pass()
    result["writer"].join()
    status, body, _ = result["reply"]
    assert status == 200 and body["applied"] is True, body
    coordinator.reconciler.run_pass()

    assert (2, 0) in session.cells
    assert session.primary != old_primary
    assert set(session.replicas) == set(coordinator.ring.shards)
    for shard in session.replicas:
        assert shard_digest(apps, shard, session_id) == grid_digest(
            session.cells
        ), f"{shard} lacks the accepted cell"
    assert served_samples(coordinator, session_id) == len(session.cells)


def test_concurrent_writers_and_reconciler_lose_nothing(make_cluster):
    """Writers, a reconciler looping scans and passes, and shards that
    lose sessions or change membership, all at once: every accepted
    cell survives."""
    coordinator, apps, clients = make_cluster(n_shards=3)
    rng = random.Random(0)
    for client in clients.values():
        # Restores spend a varying moment on the wire, so a later ship
        # can land before an earlier one, as over a network.
        dispatch = client.call

        def slow_restore(method, path, query=None, body=None, _call=dispatch):
            if path.endswith("/restore"):
                time.sleep(rng.random() * 0.003)
            return _call(method, path, query, body)

        client.call = slow_restore
    cells = [
        {"row": 0, "column": 0, "value": "Avatar"},
        {"row": 0, "column": 1, "value": "James Cameron"},
        {"row": 1, "column": 0, "value": "Big Fish"},
        {"row": 1, "column": 1, "value": "Tim Burton"},
        {"row": 2, "column": 0, "value": "Titanic"},
        {"row": 2, "column": 0, "value": ""},
    ]
    deadline = time.monotonic() + 1.0
    stop = threading.Event()
    errors: list[str] = []
    accepted: dict[str, dict] = {}

    def write_cells(index):
        status, body, _ = coordinator.handle("POST", "/sessions", {}, {})
        session_id = body["session_id"]
        grid = accepted[session_id] = {}
        step = 0
        while time.monotonic() < deadline:
            # The first row, then the second, then toggle one cell.
            cell = cells[step if step < 4 else 4 + step % 2]
            step += 1
            status, body, _ = coordinator.handle(
                "POST", f"/sessions/{session_id}/cells", {}, dict(cell)
            )
            if status != 200:
                errors.append(f"writer {index}: {status} {body}")
                return
            if body["applied"]:
                position = (cell["row"], cell["column"])
                if cell["value"]:
                    grid[position] = cell["value"]
                else:
                    grid.pop(position, None)
            samples = served_samples(coordinator, session_id)
            if samples != len(grid):
                errors.append(f"writer {index}: {samples} != {grid}")
                return

    def writer(index):
        try:
            write_cells(index)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(f"writer {index}: {error!r}")

    def reconciler():
        while not stop.is_set():
            coordinator.reconciler.repair()

    def churn():
        """Shards lose every session, leave the ring and rejoin it."""
        shards = sorted(apps)
        while not stop.is_set():
            shard = rng.choice(shards)
            if rng.random() < 0.5:
                app = apps[shard]
                for session_id in app.sessions.ids():
                    app.sessions.remove(session_id)
            elif shard in coordinator.ring.shards:
                if len(coordinator.ring.shards) == 2:
                    continue  # keep R=2 placements
                coordinator.handle("DELETE", f"/admin/shards/{shard}", {}, None)
            else:
                coordinator.handle(
                    "POST", "/admin/shards", {}, {"address": shard}
                )
            time.sleep(0.05)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        background = [
            threading.Thread(target=reconciler),
            threading.Thread(target=churn),
        ]
        writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in background + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        stop.set()
        for thread in background:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in background + writers)
    assert not errors, errors[:3]
    for _ in range(10):
        report = coordinator.reconciler.repair()
        if report.converged and coordinator.reconciler.pending() == 0:
            break
    assert report.converged and coordinator.reconciler.pending() == 0
    for session_id, grid in accepted.items():
        session = coordinator._session(session_id)
        assert session.cells == grid
        for shard in coordinator.ring.replica_set(session_id):
            assert shard_digest(apps, shard, session_id) == grid_digest(grid)
