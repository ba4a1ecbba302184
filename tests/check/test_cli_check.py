"""CLI surface of the crash-schedule checker."""

import json

import pytest

from repro.cli import main


def test_check_command_small_budget(capsys):
    code = main(["check", "--budget", "4", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "schedules" in out
    assert "coverage" in out


def test_check_command_json(capsys):
    code = main(["check", "--budget", "3", "--seed", "0", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["schedules_run"] == 3
    assert payload["coverage"]["fraction"] > 0
    assert payload["counterexamples"] == []


def test_check_command_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        ["check", "--budget", "3", "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 0
    capsys.readouterr()


def test_run_with_check_flag(capsys):
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
            "0.4",
            "--check",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "check:" in out


def test_run_check_flag_rejects_non_redbud(capsys):
    code = main(
        [
            "run",
            "--system",
            "nfs3",
            "--workload",
            "varmail",
            "--duration",
            "0.2",
            "--check",
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag",
    [
        ["run", "--system", "nfs3", "--duration", "4", "--check"],
        ["run", "--system", "nfs3", "--duration", "4",
         "--seed-bug", "dedup"],
        ["slo", "--systems", "nfs3", "--shards", "2"],
        ["slo", "--systems", "nfs3", "--faults", "loss=0.1"],
        ["run", "--system", "nfs3", "--duration", "4",
         "--witness-capacity", "16"],
    ],
)
def test_run_refuses_redbud_only_flags_before_building(
    flag, capsys, monkeypatch
):
    import repro.cli

    def never(*_args, **_kwargs):
        raise AssertionError("build_cluster ran before the flag check")

    monkeypatch.setattr(repro.cli, "build_cluster", never)
    code = main(flag)
    assert code == 2
    assert "redbud systems only" in capsys.readouterr().err


def test_run_replays_crash_schedule(capsys):
    code = main(
        [
            "run",
            "--system",
            "redbud-delayed",
            "--faults",
            "crash@0.05",
            "--seed",
            "0",
            "--clients",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "crash schedule" in out
    assert "PASS" in out


def test_check_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["check"])
    assert args.budget == 200
    assert args.seed == 0
    assert args.clients == 3
    assert args.mode == "delayed"
    assert args.seed_bug == "none"
    assert args.witness_capacity == 0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--mode", "bogus"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--witness-capacity", "many"])


@pytest.mark.check
def test_check_json_failure_exits_nonzero(capsys, tmp_path):
    """`check --json --out` must exit non-zero when the oracle fails,
    even though the report was printed and written successfully -- a CI
    gate that swallows the exit code is a broken gate."""
    out_path = tmp_path / "report.json"
    code = main(
        [
            "check", "--budget", "55", "--seed", "0",
            "--seed-bug", "dedup", "--max-counterexamples", "1",
            "--json", "--out", str(out_path),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counterexamples"]
    # The written report matches the printed one: both record failure.
    written = json.loads(out_path.read_text())
    assert written["ok"] is False


def test_check_witnessed_small_budget(capsys):
    code = main(
        [
            "check", "--budget", "4", "--seed", "0",
            "--witness-capacity", "16", "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["witness_capacity"] == 16
