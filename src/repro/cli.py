"""Command-line interface: ``mweaver`` (or ``python -m repro``).

Subcommands
-----------
``demo``
    Replay the paper's running example: search for the Avatar sample
    tuple, then watch pruning converge on the Harry Potter task.
``interactive``
    A terminal spreadsheet session against a generated source database
    (the closest thing to the paper's web UI that fits a terminal).
``explain``
    Run one traced sample search (or load a ``--trace-out`` JSON-lines
    file) and print its provenance report: which mapping paths were
    generated, kept or pruned (and why — zero-support or PMNJ bound),
    the weave fuse statistics (dominated paths), and every candidate's score
    decomposition.  ``--format json`` for machines, ``--html FILE`` for
    a single-file report.
``serve``
    Run the concurrent mapping service (:mod:`repro.service`): an HTTP
    JSON API over named mapping sessions with a shared dataset
    registry, a bounded worker pool and TTL session eviction.  Exit
    codes: 2 for configuration errors (unknown dataset, bad knobs), 1
    for runtime failures (port already bound), 0 on clean shutdown.
``top``
    Live terminal dashboard for a running service: polls ``/metrics``
    and ``/healthz``, renders request rates, latency quantiles, worker
    occupancy and admission shedding.  ``--once`` prints a single frame
    (scripts, CI smoke).
``datasets``
    Print the generated datasets' schema/size summaries.
``study``
    Run the simulated user study and print the Figure 10 aggregates.

``demo`` and ``interactive`` accept ``--trace`` (print the span tree
and metrics after the run), ``--trace-out FILE`` (write the trace as
JSON-lines) and ``--log-level LEVEL`` (attach a stderr log handler).
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.core.session import MappingSession, SessionStatus
from repro.core.tpw import TPWEngine
from repro.datasets.imdb import build_imdb
from repro.datasets.running_example import build_running_example
from repro.datasets.workload import user_study_task_imdb, user_study_task_yahoo
from repro.datasets.yahoo import build_yahoo_movies
from repro.study.study import run_user_study, satisfaction_scores


def _cmd_demo(_args: argparse.Namespace) -> int:
    db = build_running_example()
    print(db.summary())
    print()

    engine = TPWEngine(db)
    sample = ("Avatar", "James Cameron", "Lightstorm Co.", "New Zealand")
    print(f"sample tuple: {sample}")
    result = engine.search(sample)
    print(f"{result.n_candidates} candidate mappings:")
    for candidate in result.candidates:
        print(f"  {candidate.describe()}")
    print()
    print(result.stats.describe())
    print()

    print("interactive pruning (Name / Director):")
    session = MappingSession(db, ["Name", "Director"])
    session.input(0, 0, "Avatar")
    session.input(0, 1, "James Cameron")
    print(f"  after ('Avatar', 'James Cameron'): "
          f"{len(session.candidates)} candidates")
    session.input(1, 0, "Big Fish")
    session.input(1, 1, "Tim Burton")
    print(f"  after ('Big Fish', 'Tim Burton'):  "
          f"{len(session.candidates)} candidates")
    best = session.best_mapping()
    if best is not None:
        print(f"  converged mapping: {best.describe()}")
        print()
        from repro.core.explain import explain_mapping

        example = session.candidates[0].tuple_paths[0]
        for line in explain_mapping(
            best, db, column_names=["Name", "Director"], example=example
        ).splitlines():
            print(f"  {line}")
        print()
        print("  as SQL:")
        for line in best.to_sql(db.schema, column_names=["Name", "Director"]).splitlines():
            print(f"    {line}")
    return 0


def _cmd_interactive(args: argparse.Namespace) -> int:
    if args.dataset == "yahoo":
        db = build_yahoo_movies(n_movies=args.scale)
    elif args.dataset == "imdb":
        db = build_imdb(n_movies=args.scale)
    else:
        db = build_running_example()
    print(db.summary())
    columns = [column.strip() for column in args.columns.split(",") if column.strip()]
    session = MappingSession(db, columns)
    print(f"columns: {', '.join(columns)}")
    print("enter samples as  ROW COL VALUE  (0-based), or 'quit'.")
    print("auto-complete with  ? ROW COL [PREFIX]  once the search ran.")
    print("after convergence:  export PATH  writes the target as TSV.")
    print("the first row must be completed before pruning starts.")
    while True:
        try:
            line = input("mweaver> ").strip()
        except EOFError:
            break
        if not line or line in ("quit", "exit"):
            break
        if line.startswith("export "):
            target_path = line[len("export "):].strip()
            try:
                target = session.materialize()
            except Exception as error:
                print(f"  error: {error}")
                continue
            table = target.table("target")
            with open(target_path, "w", encoding="utf-8") as handle:
                handle.write("\t".join(session.spreadsheet.columns) + "\n")
                for row_values in table:
                    handle.write(
                        "\t".join(str(value) for value in row_values) + "\n"
                    )
            print(f"  wrote {len(table)} rows to {target_path}")
            continue
        if line.startswith("?"):
            parts = line[1:].split(None, 2)
            if len(parts) < 2:
                print("  expected: ? ROW COL [PREFIX]")
                continue
            try:
                row, column = int(parts[0]), int(parts[1])
                prefix = parts[2] if len(parts) > 2 else ""
                suggestions = session.suggest(row, column, prefix)
            except Exception as error:
                print(f"  error: {error}")
                continue
            if suggestions:
                for suggestion in suggestions:
                    print(f"  suggestion: {suggestion}")
            else:
                print("  no suggestions (run the first row search first?)")
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            print("  expected: ROW COL VALUE")
            continue
        try:
            row, column = int(parts[0]), int(parts[1])
            status = session.input(row, column, parts[2])
        except Exception as error:  # surfaced to the user, loop continues
            print(f"  error: {error}")
            continue
        print(session.describe())
        if status is SessionStatus.CONVERGED:
            best = session.best_mapping()
            assert best is not None
            print("converged! SQL:")
            print(best.to_sql(db.schema, column_names=list(columns)))
            print("('export PATH' to write the target, or keep typing)")
    return 0


def _build_dataset(dataset: str, scale: int):
    if dataset == "yahoo":
        return build_yahoo_movies(n_movies=scale)
    if dataset == "imdb":
        return build_imdb(n_movies=scale)
    return build_running_example()


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.input:
        roots, _metrics = obs.parse_jsonl(
            open(args.input, encoding="utf-8").read()
        )
        try:
            explanation = obs.SearchExplanation.from_trace(
                roots, search_id=args.search_id
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        db = _build_dataset(args.dataset, args.scale)
        sample = tuple(
            value.strip() for value in args.sample.split(",") if value.strip()
        )
        if not sample:
            print("error: --sample must name at least one value",
                  file=sys.stderr)
            return 2
        with obs.scoped() as tracer:
            result = TPWEngine(db).search(sample)
            if args.trace_out:
                target = obs.write_jsonl(
                    args.trace_out,
                    tracer.finished,
                    obs.get_metrics().snapshot(),
                )
                print(f"wrote trace to {target}", file=sys.stderr)
        assert result.trace is not None
        explanation = obs.SearchExplanation.from_span(result.trace)

    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(explanation.to_html())
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.format == "json":
        print(explanation.to_json())
    else:
        print(explanation.to_text())
    return 0


def _serve(make_app, banner, trace_roots: int) -> int:
    """Serve one front end until SIGTERM or SIGINT drains it.

    ``make_app`` builds the app once metrics and always-on tracing are
    installed; ``banner(server)`` returns the startup lines.  The
    caller's tracer and metrics handles are restored on every return.
    """
    # /metrics should report real numbers even without --trace.
    with obs.scoped(trace=False):
        # Always-on request tracing feeds /debug/requests; the root cap
        # bounds memory (the flight recorder keeps the interesting
        # ones).  --trace / --trace-out already installed a scoped
        # tracer in main().
        if trace_roots and not obs.tracing_enabled():
            obs.set_tracer(obs.Tracer(max_roots=trace_roots))
        return _serve_until_drained(make_app(), banner)


def _serve_until_drained(app, banner) -> int:
    import signal
    import threading

    from repro.service import MappingServer

    try:
        server = MappingServer(app)
    except OSError as error:
        print(
            f"error: cannot bind {app.config.host}:{app.config.port}: "
            f"{error}",
            file=sys.stderr,
        )
        app.close()
        return 1
    lines = banner(server)
    if app.journal is not None:
        lines.append(
            f"journal: {app.journal.path} "
            f"(recovered {app.recovered_sessions} session(s))"
        )
    lines.append("Ctrl-C or SIGTERM to drain and stop.")
    # flush: cluster harnesses parse the listening line through a pipe.
    print("\n".join(lines), flush=True)

    # Graceful drain is the default shutdown path: the handler only
    # hands off to a thread (signal handlers must not block), the drain
    # stops admission, finishes in-flight requests, flushes the journal,
    # and unblocks serve_forever — so the process exits 0 with nothing
    # torn.
    drain_thread: list[threading.Thread] = []

    def _on_signal(signum: int, _frame) -> None:
        if drain_thread:
            return
        print(f"{signal.Signals(signum).name} received: draining", flush=True)
        thread = threading.Thread(
            target=server.drain, name="mweaver-drain", daemon=True
        )
        drain_thread.append(thread)
        thread.start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        print("shutting down")
        return 0
    except Exception as error:  # surfaced as a runtime failure
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if drain_thread:
            # The journal flush happens inside the drain; wait for it
            # before the interpreter starts tearing down.
            drain_thread[0].join(timeout=app.config.drain_timeout_s + 10.0)
        server.shutdown()
    if app.drain_report is not None:
        state = "clean" if app.drain_report["clean"] else "timed out"
        print(f"drained in {app.drain_report['seconds']:g}s ({state})")
    return 0


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated option as a tuple of non-blank names."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceConfigError
    from repro.service import ServiceApp, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            datasets=_names(args.datasets),
            scale=args.scale,
            max_sessions=args.max_sessions,
            session_ttl_s=args.session_ttl,
            workers=args.workers,
            queue_size=args.queue_size,
            request_timeout_s=args.request_timeout,
            location_cache_size=args.location_cache,
            default_columns=_names(args.columns),
            journal_dir=getattr(args, "journal_dir", None),
            search_deadline_s=args.search_deadline,
            drain_timeout_s=args.drain_timeout,
            shed_factor=args.shed_factor,
            profile_hz=args.profile_hz,
            recorder_capacity=args.recorder_capacity,
            slow_request_s=args.slow_request,
            shard_mode=bool(getattr(args, "shard_mode", False)),
        ).validate()
    except ServiceConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def banner(server) -> list[str]:
        role = "shard" if config.shard_mode else "service"
        return [
            f"mweaver {role} listening on {server.url}",
            f"datasets: {', '.join(config.datasets)}  "
            f"workers: {config.workers}  queue: {config.queue_size}  "
            f"sessions: <= {config.max_sessions} "
            f"(ttl {config.session_ttl_s:g}s)",
            f"observability: tracing "
            f"{'on' if obs.tracing_enabled() else 'off'}  "
            f"profiler {config.profile_hz:g} Hz  "
            f"recorder {config.recorder_capacity} requests  "
            f"(GET /metrics?format=prometheus, /debug/requests, "
            f"/debug/profile)",
        ]

    return _serve(lambda: ServiceApp(config), banner, args.trace_roots)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, CoordinatorApp
    from repro.exceptions import ServiceConfigError

    try:
        config = ClusterConfig(
            host=args.host,
            port=args.port,
            shards=tuple(args.shards or ()),
            replication=args.replication,
            vnodes=args.vnodes,
            datasets=_names(args.datasets),
            default_columns=_names(args.columns),
            max_sessions=args.max_sessions,
            heartbeat_interval_s=args.heartbeat_interval,
            failure_threshold=args.failure_threshold,
            request_timeout_s=args.request_timeout,
            journal_dir=args.journal_dir,
            retry_after_s=args.retry_after,
            drain_timeout_s=args.drain_timeout,
            readmit_threshold=args.readmit_threshold,
            repair_interval_s=args.repair_interval,
        ).validate()
    except ServiceConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def banner(server) -> list[str]:
        replication = min(config.replication, len(config.shards))
        return [
            f"mweaver cluster coordinator listening on {server.url}",
            f"shards: {', '.join(config.shards)}  "
            f"replication: R={replication}  "
            f"heartbeat: {config.heartbeat_interval_s:g}s",
        ]

    return _serve(lambda: CoordinatorApp(config), banner, args.trace_roots)


def _cmd_supervise(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import ShardProcess, ShardSupervisor

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.poll_interval <= 0:
        print("error: --poll-interval must be positive", file=sys.stderr)
        return 2
    supervisor = ShardSupervisor(
        seed=args.seed, poll_interval_s=args.poll_interval
    )
    shards: list[ShardProcess] = []
    try:
        for index in range(args.shards):
            shard = ShardProcess(
                datasets=args.datasets,
                workers=args.workers,
                name=f"shard-{index}",
            )
            shard.start()
            shard.wait_ready()
            shards.append(shard)
            supervisor.manage(shard)
            # flush: harnesses parse these address lines through a pipe.
            print(f"{shard.name} listening on {shard.url}", flush=True)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        for shard in shards:
            shard.terminate()
        return 1
    print(
        f"supervising {len(shards)} shard(s); crashed shards respawn "
        f"on their original ports (seed={args.seed}). "
        "Ctrl-C or SIGTERM to stop.",
        flush=True,
    )
    supervisor.start()
    stop = threading.Event()

    def _on_signal(_signum: int, _frame) -> None:
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        supervisor.stop()
        for process in supervisor.processes().values():
            process.terminate()
    print("supervisor stopped")
    return 0


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """``name{a=x,b=y}`` snapshot keys -> (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for pair in inner.rstrip("}").split(","):
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


def _fetch_json(url: str, timeout_s: float) -> dict:
    import json
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as response:  # noqa: S310
        return json.loads(response.read().decode("utf-8"))


def _render_top_frame(
    metrics_body: dict, health: dict, previous: dict | None, interval_s: float
) -> tuple[str, dict]:
    """One dashboard frame plus the state the next frame deltas against."""
    from repro.obs import histogram_quantile

    snapshot = metrics_body.get("metrics", {})
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    requests_total = 0
    errors_total = 0
    by_route: dict[str, int] = {}
    for key, value in counters.items():
        name, labels = _split_key(key)
        if name != "repro.service.requests":
            continue
        requests_total += value
        by_route[labels.get("route", "?")] = (
            by_route.get(labels.get("route", "?"), 0) + value
        )
        if labels.get("status", "").startswith("5"):
            errors_total += value

    state = {"requests": requests_total, "errors": errors_total,
             "by_route": by_route}
    if previous is not None and interval_s > 0:
        delta_requests = max(0, requests_total - previous["requests"])
        delta_errors = max(0, errors_total - previous["errors"])
        rate = delta_requests / interval_s
    else:
        delta_requests = requests_total
        delta_errors = errors_total
        rate = None

    latency = histograms.get("repro.service.request.seconds")
    p50 = p95 = None
    if latency and latency.get("count"):
        bounds, counts = latency["bounds"], latency["counts"]
        p50 = histogram_quantile(bounds, counts, 0.50)
        p95 = histogram_quantile(bounds, counts, 0.95)

    lines = []
    status = health.get("status", "?")
    pool = health.get("pool") or {}
    lines.append(
        f"mweaver top — status {status}  "
        f"uptime {health.get('uptime_s', 0):.0f}s  "
        f"sessions {health.get('sessions', '?')}/"
        f"{health.get('max_sessions', '?')}"
    )
    rate_text = f"{rate:.1f}/s" if rate is not None else "n/a (first frame)"
    error_pct = (
        100.0 * delta_errors / delta_requests if delta_requests else 0.0
    )
    lines.append(
        f"requests: {requests_total} total  rate {rate_text}  "
        f"errors {error_pct:.1f}%"
    )
    if p50 is not None:
        lines.append(
            f"latency (since boot): p50 {1000 * p50:.1f} ms  "
            f"p95 {1000 * p95:.1f} ms"
        )
    lines.append(
        f"workers: {pool.get('busy', '?')}/{pool.get('workers', '?')} "
        f"busy  queue {pool.get('queue_depth', '?')}"
    )
    admission = health.get("admission") or {}
    if admission:
        lines.append(
            f"admission: ewma job {admission.get('ewma_job_s', 0):.3f}s  "
            f"shed {admission.get('shed', 0)}"
        )

    if by_route:
        lines.append("routes:")
        for route, count in sorted(
            by_route.items(), key=lambda item: -item[1]
        )[:8]:
            if previous is not None:
                route_rate = (
                    max(0, count - previous["by_route"].get(route, 0))
                    / interval_s
                )
                lines.append(f"  {route:<32s} {count:>8d}  "
                             f"{route_rate:6.1f}/s")
            else:
                lines.append(f"  {route:<32s} {count:>8d}")
    return "\n".join(lines), state


def _cmd_top(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    previous: dict | None = None
    last_poll: float | None = None
    try:
        return _top_loop(args, base, previous, last_poll)
    except KeyboardInterrupt:
        return 0


def _top_loop(
    args: argparse.Namespace,
    base: str,
    previous: dict | None,
    last_poll: float | None,
) -> int:
    import time as _time
    from urllib.error import URLError

    while True:
        try:
            metrics_body = _fetch_json(
                f"{base}/metrics", timeout_s=args.timeout
            )
            health = _fetch_json(f"{base}/healthz", timeout_s=args.timeout)
        except (URLError, OSError, ValueError) as error:
            print(f"error: cannot poll {base}: {error}", file=sys.stderr)
            if args.once:
                return 1
            _time.sleep(args.interval)
            continue
        now = _time.monotonic()
        interval = now - last_poll if last_poll is not None else 0.0
        frame, previous = _render_top_frame(
            metrics_body, health, previous, interval
        )
        last_poll = now
        if args.once:
            print(frame)
            return 0
        # Clear + home, like top(1); the frame is small enough to not
        # flicker on any terminal.
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        _time.sleep(args.interval)


def _cmd_datasets(args: argparse.Namespace) -> int:
    yahoo = build_yahoo_movies(n_movies=args.scale)
    imdb = build_imdb(n_movies=args.scale)
    for db in (yahoo, imdb):
        print(db.summary())
        if args.verbose:
            print(db.schema.describe())
            print()
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    yahoo = build_yahoo_movies(n_movies=args.scale)
    imdb = build_imdb(n_movies=args.scale)
    result = run_user_study(
        {
            "yahoo-movies": (yahoo, user_study_task_yahoo()),
            "imdb": (imdb, user_study_task_imdb()),
        }
    )
    print(f"{'tool':12s} {'time(s)':>8s} {'keystrokes':>11s} {'clicks':>7s}")
    for tool in result.tools():
        print(
            f"{tool:12s} {result.mean_metric(tool, 'seconds'):8.1f} "
            f"{result.mean_metric(tool, 'keystrokes'):11.1f} "
            f"{result.mean_metric(tool, 'clicks'):7.1f}"
        )
    print()
    print(f"time ratio InfoSphere/MWeaver: "
          f"{result.time_ratio('MWeaver', 'InfoSphere'):.2f} (paper: ~5)")
    print(f"time ratio Eirene/MWeaver:     "
          f"{result.time_ratio('MWeaver', 'Eirene'):.2f} (paper: ~4)")
    scores = satisfaction_scores(result)
    print("satisfaction: " + ", ".join(
        f"{tool}={score:.2f}" for tool, score in scores.items()
    ))
    return 0


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """The shared `mweaver serve` / `mweaver shard` flag set."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8384,
                       help="TCP port (0 = let the OS pick)")
    parser.add_argument(
        "--datasets",
        default="running",
        help="comma-separated datasets to preload (running, yahoo, imdb)",
    )
    parser.add_argument("--scale", type=int, default=150,
                       help="movie count for the generated datasets")
    parser.add_argument(
        "--columns",
        default="Name,Director",
        help="default target columns for sessions that name none",
    )
    parser.add_argument("--workers", type=int, default=4,
                       help="worker threads running searches")
    parser.add_argument("--queue-size", type=int, default=32,
                       help="bounded work-queue depth (full = 429)")
    parser.add_argument("--max-sessions", type=int, default=64,
                       help="cap on concurrently live sessions")
    parser.add_argument("--session-ttl", type=float, default=900.0,
                       metavar="SECONDS", help="idle eviction TTL")
    parser.add_argument("--request-timeout", type=float, default=10.0,
                       metavar="SECONDS", help="per-request deadline")
    parser.add_argument(
        "--search-deadline", type=float, default=None, metavar="SECONDS",
        help="anytime-search budget per cell input (default: 80%% of "
             "--request-timeout; 0 disables the budget)",
    )
    parser.add_argument("--location-cache", type=int, default=4096,
                       metavar="ENTRIES",
                       help="cross-session LocateSample LRU size (0 = off)")
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain budget for in-flight requests on "
             "SIGTERM/SIGINT",
    )
    parser.add_argument(
        "--shed-factor", type=float, default=1.0, metavar="FACTOR",
        help="shed (503 + Retry-After) when estimated queue wait "
             "exceeds FACTOR x the request deadline (0 = off)",
    )
    parser.add_argument(
        "--profile-hz", type=float, default=97.0, metavar="HZ",
        help="sampling-profiler frequency for GET /debug/profile "
             "(0 = off; 97 avoids aliasing with 10/100 Hz work)",
    )
    parser.add_argument(
        "--recorder-capacity", type=int, default=128, metavar="N",
        help="flight-recorder ring size for GET /debug/requests "
             "(0 = off)",
    )
    parser.add_argument(
        "--slow-request", type=float, default=0.25, metavar="SECONDS",
        help="auto-pin requests slower than this in the flight "
             "recorder (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-roots", type=int, default=256, metavar="N",
        help="always-on request tracing with at most N retained root "
             "spans (0 = off; feeds /debug/requests span trees)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``mweaver`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="mweaver",
        description="Sample-driven schema mapping (SIGMOD 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree and metrics after the run",
    )
    tracing.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the trace as JSON-lines to FILE (implies tracing)",
    )
    tracing.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="attach a stderr handler for repro.* loggers (e.g. DEBUG)",
    )

    demo = sub.add_parser(
        "demo",
        parents=[tracing],
        help="replay the paper's running example",
    )
    demo.set_defaults(func=_cmd_demo)

    interactive = sub.add_parser(
        "interactive", parents=[tracing], help="terminal mapping session"
    )
    interactive.add_argument(
        "--dataset", choices=("running", "yahoo", "imdb"), default="running"
    )
    interactive.add_argument("--scale", type=int, default=150)
    interactive.add_argument(
        "--columns",
        default="Name,Director",
        help="comma-separated target columns",
    )
    interactive.set_defaults(func=_cmd_interactive)

    explain = sub.add_parser(
        "explain",
        help="provenance report for one sample search",
        description=(
            "Run a traced search (or read an existing --trace-out file) "
            "and report why each candidate mapping path was kept or "
            "pruned, the weave fuse statistics, and the score "
            "decomposition of every ranked candidate."
        ),
    )
    explain.add_argument(
        "--dataset", choices=("running", "yahoo", "imdb"), default="running"
    )
    explain.add_argument("--scale", type=int, default=150)
    explain.add_argument(
        "--sample",
        default="Big Fish,Tim Burton",
        help="comma-separated sample tuple to search for (default "
             "exercises a zero-support prune on the running example)",
    )
    explain.add_argument(
        "--input",
        metavar="FILE",
        help="explain an existing JSON-lines trace instead of searching",
    )
    explain.add_argument(
        "--search-id",
        type=int,
        default=None,
        help="pick one search out of a multi-search trace (see the "
             "search_id attribute on tpw.search spans)",
    )
    explain.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    explain.add_argument(
        "--html",
        metavar="FILE",
        help="additionally write a single-file HTML report",
    )
    explain.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also dump the traced search as JSON-lines to FILE",
    )
    # explain manages its own tracer scope (it must read the span tree
    # to build the report), so main()'s --trace-out wrapper skips it.
    explain.set_defaults(func=_cmd_explain, self_traced=True)

    serve = sub.add_parser(
        "serve",
        parents=[tracing],
        help="run the concurrent mapping service (HTTP JSON API)",
        description=(
            "Serve mapping sessions over HTTP: POST /sessions, "
            "POST /sessions/{id}/cells, GET /sessions/{id}/candidates, "
            "GET /sessions/{id}/explain, GET /healthz, GET /metrics. "
            "A full work queue answers 429 with Retry-After; idle "
            "sessions are evicted after the TTL. Exit codes: 2 on "
            "configuration errors, 1 on runtime failures."
        ),
    )
    _add_service_flags(serve)
    serve.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="enable crash-safe session journaling in DIR; on startup "
             "the journal is replayed and live sessions restored",
    )
    serve.set_defaults(func=_cmd_serve, shard_mode=False)

    shard = sub.add_parser(
        "shard",
        parents=[tracing],
        help="run one cluster shard backend (serve + restore/digest)",
        description=(
            "A full mapping service plus the cluster-internal surface "
            "a coordinator needs: POST /admin/sessions/{id}/restore "
            "(session failover shipping) and GET /admin/digest "
            "(per-session grid digests for replica repair). Same "
            "flags as serve but --journal-dir: a shard keeps no journal, "
            "the coordinator's journal reseats it."
        ),
    )
    _add_service_flags(shard)
    shard.set_defaults(func=_cmd_serve, shard_mode=True)

    cluster = sub.add_parser(
        "cluster",
        parents=[tracing],
        help="run the sharded-cluster coordinator (routing tier)",
        description=(
            "Route mapping sessions across replicated mweaver shard "
            "backends: consistent-hash placement with R-way replica "
            "sets, heartbeat-driven shard health, session failover "
            "from the coordinator journal and replica repair. Speaks "
            "the same HTTP surface as serve. Exit codes: 2 on "
            "configuration errors, 1 on runtime failures."
        ),
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=8380,
        help="coordinator port (0 = OS-assigned, default: 8380)",
    )
    cluster.add_argument(
        "--shard", dest="shards", action="append", metavar="HOST:PORT",
        help="shard backend address (repeat once per shard)",
    )
    cluster.add_argument(
        "--replication", type=int, default=2, metavar="R",
        help="replica-set size per session (default: 2)",
    )
    cluster.add_argument(
        "--vnodes", type=int, default=64, metavar="N",
        help="virtual nodes per shard on the hash ring (default: 64)",
    )
    cluster.add_argument(
        "--datasets", default="running",
        help="comma-separated datasets the shards serve",
    )
    cluster.add_argument(
        "--columns", default="Name,Director",
        help="default target columns for new sessions",
    )
    cluster.add_argument(
        "--max-sessions", type=int, default=256,
        help="cluster-wide live session cap (default: 256)",
    )
    cluster.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SECONDS",
        help="shard health probe interval (default: 0.5)",
    )
    cluster.add_argument(
        "--failure-threshold", type=int, default=3, metavar="N",
        help="consecutive failures before a shard is marked down "
             "(default: 3)",
    )
    cluster.add_argument(
        "--request-timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-shard-call HTTP timeout (default: 10)",
    )
    cluster.add_argument(
        "--journal-dir", metavar="DIR",
        help="journal accepted session state to DIR/cluster.journal "
             "and replay it on startup",
    )
    cluster.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="baseline Retry-After hint on 429/503 (default: 1)",
    )
    cluster.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful drain window on SIGTERM/SIGINT (default: 10)",
    )
    cluster.add_argument(
        "--readmit-threshold", type=int, default=2, metavar="N",
        help="consecutive healthy probes a down shard must answer "
             "before routing resumes (default: 2)",
    )
    cluster.add_argument(
        "--repair-interval", type=float, default=2.0, metavar="SECONDS",
        help="anti-entropy digest scan interval (0 = off, default: 2)",
    )
    cluster.add_argument(
        "--trace-roots", type=int, default=256, metavar="N",
        help="always-on request tracing with at most N retained root "
             "spans (0 = off; feeds /debug/requests span trees)",
    )
    cluster.set_defaults(func=_cmd_cluster)

    supervise = sub.add_parser(
        "supervise",
        help="run shard processes under a respawning supervisor",
        description=(
            "Spawn N mweaver shard processes and watch them: a shard "
            "that exits is respawned on the same port after a seeded, "
            "jittered exponential backoff, and the coordinator's "
            "heartbeats re-admit it once it sustains healthy probes. "
            "Prints one 'shard listening on ...' line per shard for "
            "harnesses that parse addresses. Exit codes: 2 on "
            "configuration errors."
        ),
    )
    supervise.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="number of shard processes to run (default: 3)",
    )
    supervise.add_argument(
        "--datasets", default="running",
        help="comma-separated datasets each shard serves",
    )
    supervise.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads per shard (default: 4)",
    )
    supervise.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="backoff-jitter RNG seed (default: 0)",
    )
    supervise.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="SECONDS",
        help="crash-detection poll interval (default: 0.25)",
    )
    supervise.set_defaults(func=_cmd_supervise)

    top = sub.add_parser(
        "top",
        help="live dashboard for a running mapping service",
        description=(
            "Poll GET /metrics and GET /healthz of a running "
            "'mweaver serve' and render request rates, latency "
            "quantiles, worker occupancy and admission shedding. --once "
            "prints a single frame and exits."
        ),
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8384",
        help="base URL of the service (default %(default)s)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval",
    )
    top.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-poll HTTP timeout",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (scripts, CI smoke)",
    )
    top.set_defaults(func=_cmd_top)

    datasets = sub.add_parser("datasets", help="describe the generated datasets")
    datasets.add_argument("--scale", type=int, default=150)
    datasets.add_argument("--verbose", action="store_true")
    datasets.set_defaults(func=_cmd_datasets)

    study = sub.add_parser("study", help="run the simulated user study")
    study.add_argument("--scale", type=int, default=150)
    study.set_defaults(func=_cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        try:
            obs.setup_logging(args.log_level)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    trace_out = getattr(args, "trace_out", None)
    if getattr(args, "self_traced", False) or not (
        getattr(args, "trace", False) or trace_out
    ):
        return args.func(args)
    with obs.scoped() as tracer:
        code = args.func(args)
        spans = tracer.finished
        snapshot = obs.get_metrics().snapshot()
    if args.trace:
        print()
        print("trace:")
        print(obs.render_tree(spans))
        print()
        print("metrics:")
        print(obs.render_metrics(snapshot))
    if trace_out:
        target = obs.write_jsonl(trace_out, spans, snapshot)
        print(f"wrote trace to {target}")
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
