"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.core.tpw import TPWEngine
from repro.datasets.running_example import build_running_example

RESULTS = Path(__file__).resolve().parents[1] / "results"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_parses(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_datasets_scale(self):
        args = build_parser().parse_args(["datasets", "--scale", "42"])
        assert args.scale == 42

    def test_interactive_defaults(self):
        args = build_parser().parse_args(["interactive"])
        assert args.dataset == "running"
        assert args.columns == "Name,Director"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8384
        assert args.datasets == "running"
        assert args.workers == 4
        assert args.queue_size == 32

    def test_serve_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--help"])
        assert info.value.code == 0
        output = capsys.readouterr().out
        assert "POST /sessions" in output
        assert "429" in output

    def test_serve_drain_and_shed_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.drain_timeout == 10.0
        assert args.shed_factor == 1.0

    def test_only_serve_and_cluster_take_a_journal_dir(self, capsys):
        # A shard keeps no journal: the coordinator's journal reseats it.
        parser = build_parser()
        assert parser.parse_args(["serve", "--journal-dir", "d"]).journal_dir
        assert parser.parse_args(["cluster", "--journal-dir", "d"]).journal_dir
        for command in (["shard"], ["supervise"]):
            with pytest.raises(SystemExit) as info:
                main([*command, "--journal-dir", "d"])
            assert info.value.code == 2
            assert "--journal-dir" in capsys.readouterr().err

    def test_serve_drain_and_shed_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--drain-timeout", "5", "--shed-factor", "0.5",
        ])
        assert args.drain_timeout == 5.0
        assert args.shed_factor == 0.5


class TestCommands:
    def test_demo_output(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "2 candidate mappings" in output
        assert "converged mapping" in output
        assert "SELECT" in output

    def test_datasets_output(self, capsys):
        assert main(["datasets", "--scale", "20"]) == 0
        output = capsys.readouterr().out
        assert "43 relations" in output
        assert "19 relations" in output

    def test_datasets_verbose(self, capsys):
        assert main(["datasets", "--scale", "10", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "relation movie" in output

    def test_study_output(self, capsys):
        assert main(["study", "--scale", "60"]) == 0
        output = capsys.readouterr().out
        assert "MWeaver" in output and "InfoSphere" in output
        assert "time ratio" in output
        assert "satisfaction" in output

    def test_interactive_session(self, capsys, monkeypatch):
        lines = iter(
            [
                "0 0 Avatar",
                "0 1 James Cameron",
                "1 0 Big Fish",
                "1 1 Tim Burton",
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
        assert main(["interactive"]) == 0
        output = capsys.readouterr().out
        assert "converged" in output
        assert "SELECT" in output

    def test_interactive_bad_input_recovers(self, capsys, monkeypatch):
        lines = iter(["not enough", "0 0 Avatar", "quit"])
        monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
        assert main(["interactive"]) == 0
        output = capsys.readouterr().out
        assert "expected: ROW COL VALUE" in output

    def test_interactive_export(self, capsys, monkeypatch, tmp_path):
        target_path = tmp_path / "out.tsv"
        lines = iter(
            [
                "0 0 Harry Potter",
                "0 1 David Yates",
                f"export {target_path}",
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
        assert main(["interactive"]) == 0
        output = capsys.readouterr().out
        assert "converged!" in output
        assert "wrote" in output
        content = target_path.read_text()
        assert content.splitlines()[0] == "Name\tDirector"
        assert "Avatar\tJames Cameron" in content

    def test_interactive_export_before_convergence(self, capsys, monkeypatch,
                                                   tmp_path):
        lines = iter([f"export {tmp_path / 'x.tsv'}", "quit"])
        monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
        assert main(["interactive"]) == 0
        output = capsys.readouterr().out
        assert "error:" in output

    def test_serve_bad_dataset_is_a_config_error(self, capsys):
        assert main(["serve", "--datasets", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_serve_bad_knobs_are_config_errors(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert main(["serve", "--queue-size", "-1"]) == 2
        assert main(["serve", "--columns", ""]) == 2
        assert main(["serve", "--shed-factor", "-0.5"]) == 2
        capsys.readouterr()

    def test_serve_unbindable_port_is_a_runtime_error(self, capsys):
        import socket

        from repro import obs

        held = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            port = held.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
            assert "cannot bind" in capsys.readouterr().err
        finally:
            held.close()
            obs.disable_metrics()

    def test_serve_bind_failure_restores_obs_state(self, capsys):
        import socket

        from repro import obs

        tracer, metrics = obs.get_tracer(), obs.get_metrics()
        held = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            port = held.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        finally:
            held.close()
        capsys.readouterr()
        # serve installs an always-on tracer and a live registry; an
        # in-process caller must get its own handles back.
        assert obs.get_tracer() is tracer
        assert obs.get_metrics() is metrics

    def test_interactive_suggestions(self, capsys, monkeypatch):
        lines = iter(
            [
                "? 0 0",             # too early: no search yet
                "0 0 Avatar",
                "0 1 James Cameron",
                "? 1 0 big",         # completes Big Fish
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda _prompt: next(lines))
        assert main(["interactive"]) == 0
        output = capsys.readouterr().out
        assert "no suggestions" in output
        assert "suggestion: Big Fish" in output


class TestExplainCommand:
    def test_text_report_by_default(self, capsys):
        assert main(["explain"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("search #")
        assert "pruned (zero-support) support=0" in output
        assert "score decomposition" in output

    def test_json_and_html_reports(self, capsys, tmp_path):
        report = tmp_path / "report.html"
        assert main(["explain", "--format", "json", "--html", str(report)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prune_totals"]["zero-support"] >= 1
        assert all(
            path["support"] >= 1
            for path in payload["paths"]
            if path["decision"] == "kept"
        )
        assert report.read_text().startswith("<!doctype html>")

    def test_trace_out_round_trips_through_input(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["explain", "--trace-out", str(trace), "--format", "json"]
        ) == 0
        live = json.loads(capsys.readouterr().out)
        assert main(["explain", "--input", str(trace), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == live

    def test_multi_search_trace_needs_a_search_id(self, capsys, tmp_path):
        engine = TPWEngine(build_running_example())
        with obs.scoped() as tracer:
            first = engine.search(("Avatar", "James Cameron"))
            engine.search(("Big Fish", "Tim Burton"))
        trace = obs.write_jsonl(tmp_path / "two.jsonl", tracer.finished)
        assert main(["explain", "--input", str(trace)]) == 2
        assert "pass search_id" in capsys.readouterr().err
        assert main([
            "explain", "--input", str(trace),
            "--search-id", str(first.search_id), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["search"]["search_id"] == first.search_id

    def test_explains_a_trace_recorded_by_an_earlier_version(self, capsys):
        # The committed trace also carries per-path decisions on
        # tpw.pairwise and a fuse record on tpw.weave, which searches no
        # longer write; the report reads past them.
        trace = RESULTS / "table2_headline_trace.jsonl"
        assert main(["explain", "--input", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["paths"]
        assert all("support" in path for path in payload["paths"])
        assert set(payload["levels"][0]) == {"level", "pairwise_in"}
        assert payload["prune_totals"]["zero-support"] >= 1
