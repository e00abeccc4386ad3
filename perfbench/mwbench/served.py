"""``running-http`` and ``cluster-routed``: open-loop HTTP flows.

``running-http`` drives one spawned ``mweaver serve --journal-dir``
process with default flags (metrics, always-on tracing and the 97 Hz
profiler are on by default).  ``cluster-routed`` drives a spawned
``mweaver cluster`` coordinator at R=2, journal on, over two spawned
``mweaver shard`` processes: with two shards at R=2 every session lands
on both, so placement does not vary with the random session ids.  Its
periodic anti-entropy repair is off (see
``inprocess.REPAIR_INTERVAL_S``).

Every flow is the running example: create a session, write the four
cells (the second completes row 0 and runs the search, the last two
prune), read the candidates with SQL after each row, delete.  Flows
arrive as a seeded Poisson process at a fixed rate of about a third of
what one closed-loop client achieves, so the server is never the
bottleneck and latency measures the request path, not a queue.
"""

from __future__ import annotations

import http.client
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.resilience.journal import grid_digest

from mwbench import checks, loadgen, procfs
from mwbench.inprocess import (
    REPAIR_INTERVAL_S, InProcessTopology, running_core_attribution,
)
from mwbench.result import Result
from mwbench.schedule import poisson_arrivals
from mwbench.stats import mean, median, min_samples, percentile

#: Flow arrival rates (flows per second), about a third of one
#: closed-loop client's rate on a 2-core host.
SERVICE_RATE = 40.0
CLUSTER_RATE = 18.0
#: Fewest timed flows per run: each flow prunes twice, and the prune
#: p99 needs ten samples beyond it.
MIN_FLOWS = math.ceil(min_samples(99) / 2)
#: Flows per pass of the traced run's extra passes (medians and means).
LAYER_FLOWS = 120
#: The in-process conditions: name, layer entries timed, metrics on.
CONDITIONS = (
    ("plain", False, True),
    ("timed", True, True),
    ("metrics_off", True, False),
)
#: Interleaved rounds of the conditions, and flows per batch.
ROUNDS = 8
BATCH_FLOWS = 15
#: Closed-loop flows run before timing, so caches and lazy set-up are warm.
WARMUP_FLOWS = 200
#: Spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Flows whose replica catch-up is timed in the traced cluster run.
LAG_FLOWS = 20
#: Seconds between readiness polls (the CLI's own waits poll at 0.1 s).
POLL_S = 0.002
STARTUP_TIMEOUT_S = 60.0


# -- processes --------------------------------------------------------


@dataclass
class Server:
    """One spawned ``python -m repro`` server process.

    ``started``, ``listening_at`` and ``ready_at`` are
    ``time.perf_counter()`` readings.
    """

    process: subprocess.Popen
    log: Path
    started: float
    url: str = ""
    listening_at: float = 0.0
    ready_at: float = 0.0

    @property
    def address(self) -> str:
        """``host:port`` of the listener."""
        return self.url.split("://", 1)[1]

    def terminate(self) -> None:
        """Ask for a graceful drain (SIGTERM) if it is still running."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)

    def wait(self) -> None:
        """Wait until it has exited; kill it if the drain hangs."""
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20)

    def stop(self) -> None:
        """Graceful drain, then a kill if it hangs; waits."""
        self.terminate()
        self.wait()


def spawn(args: list[str], work_dir: Path, name: str) -> Server:
    """Start ``python -m repro <args>`` with its output in a log file."""
    log = work_dir / f"{name}.log"
    src = str(Path(__file__).resolve().parents[2] / "src")
    started = time.perf_counter()
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *args],
            stdout=out,
            stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": src},
        )
    return Server(process, log, started)


def wait_listening(server: Server) -> None:
    """Poll the server's log for its ``listening on`` line."""
    deadline = server.started + STARTUP_TIMEOUT_S
    while time.perf_counter() < deadline:
        text = server.log.read_text(errors="replace")
        for line in text.splitlines():
            if " listening on http://" in line:
                server.url = line.rsplit(" ", 1)[1].strip()
                server.listening_at = time.perf_counter()
                return
        if server.process.poll() is not None:
            raise RuntimeError(f"server exited early:\n{text}")
        time.sleep(POLL_S)
    raise RuntimeError(f"server not listening after {STARTUP_TIMEOUT_S}s")


def wait_ready(server: Server) -> None:
    """Wait until the server answers ready; record when it did."""
    loadgen.wait_ready(
        server.address, server.started + STARTUP_TIMEOUT_S, POLL_S
    )
    server.ready_at = time.perf_counter()


def start_service(work_dir: Path, index: int) -> tuple[list[Server], float, float]:
    """``mweaver serve --journal-dir``; returns servers, setup s, admit s."""
    journal = work_dir / f"journal-service-{index}"
    server = spawn(
        ["serve", "--port", "0", "--journal-dir", str(journal)],
        work_dir, f"serve-{index}",
    )
    try:
        wait_listening(server)
        wait_ready(server)
    except BaseException:
        server.stop()
        raise
    return [server], server.ready_at - server.started, 0.0


def start_cluster(work_dir: Path, index: int) -> tuple[list[Server], float, float]:
    """Two shards, then a coordinator at R=2 with its journal on.

    Returns ``[coordinator, shard, shard]``, the set-up seconds (first
    spawn until the coordinator is ready) and how long the listening
    coordinator waited for heartbeats to admit the shards.
    """
    servers: list[Server] = []
    try:
        for n in range(2):
            servers.append(
                spawn(["shard", "--port", "0"], work_dir, f"shard-{index}-{n}")
            )
        for shard in servers:
            wait_listening(shard)
        for shard in servers:
            wait_ready(shard)
        args = ["cluster", "--port", "0", "--replication", "2",
                "--repair-interval", str(REPAIR_INTERVAL_S),
                "--journal-dir", str(work_dir / f"journal-cluster-{index}")]
        for shard in servers:
            args += ["--shard", shard.address]
        coordinator = spawn(args, work_dir, f"coordinator-{index}")
        servers.insert(0, coordinator)
        wait_listening(coordinator)
        wait_ready(coordinator)
    except BaseException:
        stop_all(servers)
        raise
    return (
        servers,
        coordinator.ready_at - servers[1].started,
        coordinator.ready_at - coordinator.listening_at,
    )


def stop_all(servers: list[Server]) -> None:
    """Stop every server: all drain at once, then each is waited for."""
    for server in servers:
        server.terminate()
    for server in servers:
        server.wait()


# -- flows ------------------------------------------------------------


@dataclass
class FlowRecord:
    """Latencies of one HTTP flow, by request kind."""

    #: ``(kind, seconds from due or send, seconds from send)``.
    requests: list[tuple[str, float, float]] = field(default_factory=list)
    ok: bool = False
    error: str = ""
    attempted: int = 0
    session_id: str = ""


def http_flow(
    client: loadgen.Client, due: float, *, delete: bool = True
) -> FlowRecord:
    """One running-example flow; never retries, stops at the first failure.

    The first request is timed from ``due`` (the flow's scheduled
    arrival), so a late generator or a stalled server shows in the
    latency; later requests are sent the moment the previous answered.
    """
    record = FlowRecord()
    expect = ("awaiting_first_row", "active", "active", "converged")
    kinds = ("cell", "search", "prune", "prune")
    try:
        status, body = _timed(client, record, "create", "POST", "/sessions", {}, due)
        if status != 201 or not isinstance(body, dict):
            raise checks.IncorrectOutput(f"create answered {status}")
        session = body["session_id"]
        record.session_id = session
        for (row, column, value), state, kind in zip(
            checks.RUNNING_CELLS, expect, kinds
        ):
            status, body = _timed(
                client, record, kind, "POST", f"/sessions/{session}/cells",
                {"row": row, "column": column, "value": value},
            )
            checks.check_cell_reply(status, body, expect=state)
            if column == 1:
                status, body = _timed(
                    client, record, "candidates", "GET",
                    f"/sessions/{session}/candidates?sql=1",
                )
                checks.check_candidates_reply(status, body, converged=row == 1)
        if delete:
            delete_session(client, record)
        record.ok = True
    except (
        checks.IncorrectOutput, OSError, http.client.HTTPException,
        KeyError, ValueError,
    ) as error:
        record.error = f"{type(error).__name__}: {error}"
        client.reset()
    return record


def delete_session(client: loadgen.Client, record: FlowRecord) -> None:
    """``DELETE /sessions/{id}``, checked."""
    status, _ = _timed(
        client, record, "delete", "DELETE", f"/sessions/{record.session_id}"
    )
    if status != 204:
        raise checks.IncorrectOutput(f"delete answered {status}")


def _timed(client, record, kind, method, path, body=None, due=None):
    record.attempted += 1
    sent = time.perf_counter()
    status, parsed = client.call(method, path, body)
    done = time.perf_counter()
    record.requests.append((kind, done - (due if due is not None else sent), done - sent))
    return status, parsed


def count_flows(result: Result, flows: list[FlowRecord], label: str) -> None:
    """Add the flows' requests to ``attempted`` and each failure to ``failed``."""
    for flow in flows:
        result.attempted += flow.attempted
        if not flow.ok:
            result.fail(f"{label}: {flow.error}")


def flows_to_result(
    result: Result, flows: list[FlowRecord]
) -> dict[str, list[float]]:
    """Count attempts and failures; pool latencies by request kind."""
    count_flows(result, flows, "timed")
    pooled: dict[str, list[float]] = {}
    for flow in flows:
        for kind, from_due, _from_send in flow.requests:
            pooled.setdefault(kind, []).append(from_due)
            pooled.setdefault("all", []).append(from_due)
    return pooled


def warm_up(result: Result, address: str) -> None:
    """Untimed closed-loop flows; their answers are still checked."""
    count_flows(
        result, loadgen.closed_loop(address, http_flow, WARMUP_FLOWS), "warm-up"
    )


# -- scraping ---------------------------------------------------------


def scrape(server: Server, path: str) -> dict[str, Any]:
    """GET one JSON endpoint of a spawned server."""
    client = loadgen.Client(server.address)
    try:
        status, body = client.call("GET", path)
    finally:
        client.close()
    if status != 200 or not isinstance(body, dict):
        raise RuntimeError(f"{path} answered {status}")
    return body


def cache_counts(servers: list[Server]) -> tuple[int, int]:
    """Summed LocationCache hits and misses of the serving processes."""
    hits = misses = 0
    for server in servers:
        stats = scrape(server, "/metrics").get("service", {}).get("location_cache")
        if stats:
            hits += stats["hits"]
            misses += stats["misses"]
    return hits, misses


def restore_ships(shards: list[Server]) -> int:
    """Restore requests the shards have answered (replica ships)."""
    total = 0
    for shard in shards:
        counters = scrape(shard, "/metrics")["metrics"].get("counters", {})
        for key, value in counters.items():
            if "POST /admin/sessions/{id}/restore" in key:
                total += int(value)
    return total


# -- workloads --------------------------------------------------------


def _run_spawned(
    result: Result,
    start,
    arrivals: list[float],
    work_dir: Path,
    *,
    setup_repeats: int,
):
    """Set up ``setup_repeats`` times, keep the last, run the open loop.

    Returns the servers (still running), the set-up seconds and
    admission waits, the generator run, and the CPU seconds each server
    used over the timed window.
    """
    setup_times = []
    admit_times = []
    servers: list[Server] = []
    try:
        for index in range(setup_repeats):
            if servers:
                stop_all(servers)
            servers, setup_s, admit_s = start(work_dir, index)
            setup_times.append(setup_s)
            admit_times.append(admit_s)
        front = servers[0]
        warm_up(result, front.address)
        cpu_before = [procfs.cpu_s(s.process.pid) for s in servers]
        run = loadgen.open_loop(front.address, arrivals, http_flow)
        cpu = [
            procfs.cpu_s(s.process.pid) - before
            for s, before in zip(servers, cpu_before)
        ]
    except BaseException:
        stop_all(servers)
        raise
    return servers, setup_times, admit_times, run, cpu


def run_service(seed: int, seconds: int, trace: bool, work_dir: Path) -> Result:
    """The ``running-http`` workload."""
    return _run_served(
        start_service, SERVICE_RATE, seed, seconds, trace, work_dir,
        cluster=False,
    )


def run_cluster(seed: int, seconds: int, trace: bool, work_dir: Path) -> Result:
    """The ``cluster-routed`` workload."""
    return _run_served(
        start_cluster, CLUSTER_RATE, seed, seconds, trace, work_dir,
        cluster=True,
    )


def _run_served(start, rate, seed, seconds, trace, work_dir, *, cluster):
    result = Result()
    # The traced run needs medians and means only.
    count = LAYER_FLOWS if trace else max(MIN_FLOWS, round(rate * seconds))
    servers, setup_times, admit_times, run, cpu = _run_spawned(
        result, start, poisson_arrivals(seed, rate, count), work_dir,
        setup_repeats=1 if trace else SETUP_REPEATS,
    )
    try:
        pooled = flows_to_result(result, run.flows)
        good = sum(flow.ok for flow in run.flows)
        result.note("flows", len(run.flows))
        result.note("rate_per_s", rate)
        if not trace:
            result.metric("setup_s", median(setup_times), "s")
            result.metric("flows_per_s", good / run.wall_s, "1/s")
            result.latencies(pooled["search"], pooled["prune"], pooled["all"])
            result.metric(
                "server_cpu_ms_per_flow", sum(cpu) * 1000 / len(run.flows), "ms"
            )
            result.metric(
                "rss_mb",
                sum(procfs.peak_rss_mb(s.process.pid) for s in servers),
                "MiB",
            )
            cells = sum(len(pooled[kind]) for kind in ("cell", "search", "prune"))
            result.metric("samples_to_goal", cells / len(run.flows), "count")
            return result
        _spawned_layers(result, servers, pooled, run, cpu, admit_times, cluster)
        if cluster:
            _cluster_layers(result, servers, run, rate, seed)
    finally:
        stop_all(servers)
    topology_layers(result, "cluster" if cluster else "service", rate, seed,
                    work_dir)
    return result


def _spawned_layers(result, servers, pooled, run, cpu, admit_times, cluster):
    """Per-layer metrics read off the spawned processes and the client."""
    ms = 1000
    result.layer("service.create_p50_ms", percentile(pooled["create"], 50) * ms, "ms")
    cells = pooled["cell"] + pooled["search"] + pooled["prune"]
    result.layer("service.cells_p50_ms", percentile(cells, 50) * ms, "ms")
    result.layer(
        "service.candidates_p50_ms", percentile(pooled["candidates"], 50) * ms, "ms"
    )
    result.layer("bench.late_p90_ms", percentile(run.late_s, 90) * ms, "ms")
    backends = servers[1:] if cluster else servers
    hits, misses = cache_counts(backends)
    result.layer(
        "service.location_cache_hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
    )
    flows = len(run.flows)
    if cluster:
        result.layer(
            "cluster.coordinator_cpu_ms_per_flow", cpu[0] * ms / flows, "ms"
        )
        result.layer(
            "cluster.shard_cpu_ms_per_flow", sum(cpu[1:]) * ms / flows, "ms"
        )
        result.layer("cluster.admit_wait_s", median(admit_times), "s")
        result.layer(
            "cluster.ships_per_flow",
            restore_ships(backends) / (flows + WARMUP_FLOWS), "count",
        )
    else:
        for name, unit in (
            ("cluster.coordinator_cpu_ms_per_flow", "ms"),
            ("cluster.shard_cpu_ms_per_flow", "ms"),
            ("cluster.admit_wait_s", "s"),
            ("cluster.ships_per_flow", "count"),
            ("cluster.hop_ms", "ms"),
            ("cluster.replica_lag_ms", "ms"),
        ):
            # No cluster tier on this workload: nothing to measure.
            result.layer(name, 0.0, unit)


def _cluster_layers(result, servers, routed, rate, seed):
    """Routing hop and replica lag on the spawned cluster."""
    coordinator, *shards = servers
    # The same flows straight to one shard: the coordinator hop is the
    # difference of the two medians.
    direct = loadgen.open_loop(
        shards[0].address, poisson_arrivals(seed, rate, LAYER_FLOWS),
        http_flow,
    )
    count_flows(result, direct.flows, "direct to shard")
    hop_s = (
        percentile(sent_latencies(routed.flows), 50)
        - percentile(sent_latencies(direct.flows), 50)
    )
    result.layer("cluster.hop_ms", hop_s * 1000, "ms")
    result.layer(
        "cluster.replica_lag_ms",
        mean(replica_lags(result, coordinator, shards)) * 1000, "ms",
    )


def sent_latencies(flows: list[FlowRecord]) -> list[float]:
    """Every request's latency from its send, over the flows."""
    return [sent for flow in flows for _kind, _due, sent in flow.requests]


def replica_lags(result, coordinator: Server, shards: list[Server]) -> list[float]:
    """Seconds from a flow's last accepted cell until both replicas hold it."""
    client = loadgen.Client(coordinator.address)
    probes = [loadgen.Client(shard.address) for shard in shards]
    expected = grid_digest(
        {(row, column): value for row, column, value in checks.RUNNING_CELLS}
    )
    lags = []
    try:
        for _ in range(LAG_FLOWS):
            record = http_flow(client, time.perf_counter(), delete=False)
            result.attempted += record.attempted
            if not record.ok:
                result.fail(f"lag flow: {record.error}")
                continue
            accepted = time.perf_counter()
            deadline = accepted + 10.0
            while time.perf_counter() < deadline:
                digests = [
                    probe.call("GET", "/admin/digest")[1]["sessions"]
                    .get(record.session_id, {}).get("digest")
                    for probe in probes
                ]
                if all(digest == expected for digest in digests):
                    lags.append(time.perf_counter() - accepted)
                    break
                time.sleep(POLL_S)
            else:
                result.fail(f"replicas of {record.session_id} never caught up")
            delete_session(client, record)
    finally:
        client.close()
        for probe in probes:
            probe.close()
    return lags


def topology_layers(result, kind, rate, seed, work_dir):
    """Per-layer metrics from an in-process topology the benchmark builds.

    Three conditions -- plain, timed, timed with metrics off -- run in
    interleaved batches of flows on one topology, in rotating order, so
    they share whatever the host's speed does meanwhile.
    """
    flows = {name: [] for name, _timed, _metrics in CONDITIONS}
    with InProcessTopology(kind, work_dir / "inprocess") as topo:
        warm_up(result, topo.address)
        for round_index in range(ROUNDS):
            shift = round_index % len(CONDITIONS)
            for index, (name, timed, metrics) in enumerate(
                CONDITIONS[shift:] + CONDITIONS[:shift]
            ):
                arrivals = poisson_arrivals(
                    seed * 1000 + round_index * 10 + index, rate, BATCH_FLOWS
                )
                with topo.condition(name, timed=timed, metrics=metrics):
                    run = loadgen.open_loop(topo.address, arrivals, http_flow)
                count_flows(result, run.flows, f"in-process {name}")
                flows[name].extend(run.flows)
        timings = topo.timings("timed")
        handle_off_ms = topo.timings("metrics_off")["handle_ms"]
    plain = sent_latencies(flows["plain"])
    timed = sent_latencies(flows["timed"])
    result.layer("service.handle_ms", timings["handle_ms"], "ms")
    result.layer(
        "service.http_ms", mean(timed) * 1000 - timings["front_handle_ms"], "ms"
    )
    result.layer("core.session_input_ms", timings["input_ms"], "ms")
    result.layer("resilience.journal_ms", timings["journal_ms"], "ms")
    result.layer(
        "obs.metrics_share", 1 - handle_off_ms / timings["handle_ms"], "ratio"
    )
    result.layer(
        "bench.trace_overhead_pct",
        (percentile(timed, 50) / percentile(plain, 50) - 1) * 100, "%",
    )
    result.layer_metrics.update(running_core_attribution().metrics())

