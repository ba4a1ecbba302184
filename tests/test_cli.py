"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import WORKLOADS, build_parser, main


def test_parser_builds_and_validates():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "--system", "nfs3", "--workload", "varmail"]
    )
    assert args.system == "nfs3"
    assert args.workload == "varmail"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--system", "gfs"])
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_all_workload_factories_construct():
    for name, factory in WORKLOADS.items():
        workload = factory()
        assert workload.threads_per_client >= 1, name


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "bench_fig4_merge_ratio.py" in out


def test_run_command_small(capsys):
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/s" in out
    assert "merge_ratio" in out


def test_run_command_json(capsys):
    code = main(
        [
            "run",
            "--system",
            "nfs3",
            "--workload",
            "varmail",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "nfs3"
    assert payload["workload"] == "varmail"
    assert payload["ops_completed"] > 0
    assert payload["latency"]["p95"] >= payload["latency"]["p50"]
    assert all(
        isinstance(v, (int, float, str, bool))
        for v in payload["extras"].values()
    )


def test_run_command_with_trace(capsys, tmp_path):
    trace_path = str(tmp_path / "run-trace.json")
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--trace",
            trace_path,
        ]
    )
    assert code == 0
    with open(trace_path) as fh:
        trace = json.load(fh)
    assert any(
        e.get("name") == "commit_queued" for e in trace["traceEvents"]
    )


def test_trace_command_produces_complete_chains(capsys, tmp_path):
    out_path = str(tmp_path / "trace.json")
    code = main(
        [
            "trace",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--out",
            out_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "complete enqueue->dispatch chains" in out
    with open(out_path) as fh:
        trace = json.load(fh)
    names = {e.get("name") for e in trace["traceEvents"]}
    for stage in (
        "commit_queued",
        "compound_assembly",
        "rpc:commit",
        "mds_handle",
        "disk_dispatch",
    ):
        assert stage in names, stage


def test_trace_command_jsonl_format(tmp_path):
    out_path = str(tmp_path / "trace.jsonl")
    code = main(
        [
            "trace",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--out",
            out_path,
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    with open(out_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    assert records
    assert {r["type"] for r in records} <= {"span", "instant"}


def test_stats_command(capsys):
    code = main(
        [
            "stats",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for name in (
        "commit_queue.depth",
        "elevator.merge_ratio",
        "mds.utilization",
        "commit.compound_degree",
    ):
        assert name in out


def test_stats_command_json(capsys):
    code = main(
        [
            "stats",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "2",
            "--duration",
            "0.5",
            "--json",
        ]
    )
    assert code == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["commit.rpcs"] > 0
    assert snap["commit.compound_degree"]["count"] > 0


def test_crash_command_delayed_consistent(capsys):
    code = main(
        [
            "crash",
            "--mode",
            "delayed",
            "--clients",
            "2",
            "--workload",
            "xcdn-32K",
            "--at",
            "0.15",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CONSISTENT" in out
    assert "recovery reclaimed" in out


def test_crash_refuses_duration():
    # `crash` stops at --at; a --duration it would ignore is refused.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["crash", "--duration", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--witness-capacity", "-1"], "--witness-capacity"),
        (["soak", "--witness-capacity", "-1"], "--witness-capacity"),
        (["run", "--shards", "0"], "--shards"),
        (["check", "--shards", "0"], "--shards"),
        (["run", "--clients", "0"], "--clients"),
        (["check", "--clients", "0"], "--clients"),
        (["soak", "--clients", "0"], "--clients"),
        (["run", "--duration", "-1"], "--duration"),
        (["check", "--budget", "-3"], "--budget"),
        (["run", "--processes", "0"], "--processes"),
        (["run", "--delegation-chunk", "0"], "--delegation-chunk"),
        (["crash", "--at", "-1"], "--at"),
        (["soak", "--intensity", "-1"], "--intensity"),
        (["soak", "--hours", "0"], "--hours"),
    ],
)
def test_out_of_range_numbers_are_refused_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_run_reports_witness_counters(capsys):
    argv = ["run", "--clients", "2", "--duration", "0.3"]
    assert main(argv + ["--witness-capacity", "8", "--json"]) == 0
    witnesses = json.loads(capsys.readouterr().out)["extras"]["witnesses"]
    assert witnesses["capacity"] == 8
    assert witnesses["fast_commits"] > 0
    assert main(argv + ["--witness-capacity", "8"]) == 0
    out = capsys.readouterr().out
    assert "CURP witnesses" in out
    assert f"fast_commits      | {witnesses['fast_commits']}" in out
    assert main(argv) == 0
    assert "CURP witnesses" not in capsys.readouterr().out


def test_run_command_with_aggregate_processes(capsys):
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "6",
            "--processes",
            "2",
            "--duration",
            "0.4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/s" in out


def test_run_command_scheduler_choice(capsys):
    """There is none: one calendar backs the engine, so ``--scheduler``
    is an argparse error on both verbs that used to take it."""
    parser = build_parser()
    for argv in (
        ["run", "--system", "redbud-delayed", "--scheduler", "heap"],
        ["soak", "--hours", "2", "--scheduler", "heap"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
    assert "unrecognized arguments: --scheduler" in capsys.readouterr().err


def test_processes_rejects_only_client_death_faults(capsys):
    # client_death addresses one workload personality by index, which
    # aggregation makes meaningless -- the error names the clause.
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "4",
            "--processes",
            "2",
            "--faults",
            "loss=0.05,client_death=3@0.1",
            "--duration",
            "0.2",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "client_death clauses" in err
    assert "client_death=3@0.1" in err


def test_processes_allows_faults_without_client_death(capsys):
    # Link/MDS-level faults survive aggregation: every other clause
    # family targets links, shards, or storage members.
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--workload",
            "xcdn-32K",
            "--clients",
            "4",
            "--processes",
            "2",
            "--faults",
            "loss=0.02,mds_restart@0.1:0.05",
            "--duration",
            "0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fault summary" in out


def _refuse(*_args, **_kwargs):
    raise AssertionError("ran before the output path was checked")


def test_check_rejects_a_missing_out_directory_before_exploring(
    capsys, tmp_path, monkeypatch
):
    import repro.check

    monkeypatch.setattr(repro.check, "explore", _refuse)
    out = str(tmp_path / "missing" / "x.json")
    assert main(["check", "--budget", "1", "--out", out]) == 2
    assert "output directory does not exist" in capsys.readouterr().err


def test_slo_rejects_a_missing_out_directory_before_running(
    capsys, tmp_path, monkeypatch
):
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_cluster", _refuse)
    out = str(tmp_path / "missing" / "x.json")
    assert main(["slo", "--systems", "nfs3", "--out", out]) == 2
    assert "output directory does not exist" in capsys.readouterr().err


def test_smoke_rejects_a_missing_report_directory_before_connecting(
    capsys, tmp_path, monkeypatch
):
    import socket

    import repro.rt.smoke

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    (tmp_path / "cluster.json").write_text(
        json.dumps(
            {
                "addresses": [["127.0.0.1", closed_port]],
                "shards": 1,
                "volume_size": 1 << 26,
            }
        )
    )
    monkeypatch.setattr(repro.rt.smoke, "run_smoke", _refuse)
    report = str(tmp_path / "missing" / "x.json")
    code = main(
        ["smoke", "--data-dir", str(tmp_path), "--report", report]
    )
    assert code == 2
    assert "output directory does not exist" in capsys.readouterr().err


def test_run_refuses_more_processes_than_clients(capsys, monkeypatch):
    import repro.cli

    monkeypatch.setattr(repro.cli, "build_cluster", _refuse)
    argv = ["run", "--clients", "2", "--processes", "3", "--duration", "0.05"]
    assert main(argv) == 2
    assert "--processes 3 exceeds --clients 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["serve", "--shards", "0"], "argument --shards: must be"),
        (["serve", "--daemons", "0"], "argument --daemons: must be"),
        (["serve", "--volume-size", "0"], "argument --volume-size: must be"),
        (["serve", "--drop-every", "-1"], "argument --drop-every: must be"),
        (
            ["serve-shard", "--shard", "0", "--shards", "0"],
            "argument --shards: must be",
        ),
        (
            ["serve-shard", "--shard", "-1", "--shards", "2"],
            "argument --shard: must be",
        ),
        (
            ["serve-shard", "--shard", "2", "--shards", "2"],
            "--shard 2 is not below --shards 2",
        ),
        (["smoke", "--clients", "0"], "argument --clients: must be"),
        (["smoke", "--files", "0"], "argument --files: must be"),
        (["smoke", "--file-size", "0"], "argument --file-size: must be"),
    ],
)
def test_live_verbs_refuse_out_of_range_numbers(
    capsys, tmp_path, monkeypatch, argv, complaint
):
    import asyncio
    import subprocess

    monkeypatch.setattr(subprocess, "Popen", _refuse)
    monkeypatch.setattr(asyncio, "run", _refuse)
    data_dir = tmp_path / "data"
    try:
        code = main(argv + ["--data-dir", str(data_dir)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert complaint in capsys.readouterr().err
    assert not (data_dir / "cluster.json").exists()


class _FakeShard:
    """A ``subprocess.Popen`` stand-in for one shard: READY, then exit."""

    def __init__(self, cmd, **_kwargs):
        port = 7000 + int(cmd[cmd.index("--shard") + 1])
        self._lines = [f"READY port={port}\n"]
        self.stdout = self

    def readline(self):
        return self._lines.pop(0) if self._lines else ""

    def wait(self, timeout=None):
        return 0

    def poll(self):
        return 0


def test_serve_never_shows_a_half_written_cluster_file(
    capsys, tmp_path, monkeypatch
):
    import subprocess

    import repro.cli

    cluster_path = tmp_path / "cluster.json"
    dump = json.dump

    def watched_dump(obj, handle, **kwargs):
        # Whatever polls for cluster.json must not find it yet.
        assert not cluster_path.exists()
        dump(obj, handle, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", _FakeShard)
    monkeypatch.setattr(repro.cli.json, "dump", watched_dump)
    assert main(["serve", "--shards", "2", "--data-dir", str(tmp_path)]) == 0
    assert json.loads(cluster_path.read_text())["addresses"] == [
        ["127.0.0.1", 7000],
        ["127.0.0.1", 7001],
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cluster.json"]
