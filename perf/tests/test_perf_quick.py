"""Self-test of the benchmark at ``--quick`` sizing.

Run with ``python -m pytest perf/tests`` from the checkout root (tier-1's
``testpaths`` does not include this directory).  Both passes -- untraced
and traced -- run once per session through the real command line.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, ROOT)

from perf import compare, host  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = host.load_spec()


def _quick(tmp_path_factory, trace):
    out = tmp_path_factory.mktemp("perf") / f"trace{trace}.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "perf.run", "--quick",
            "--trace", str(trace), "--out", str(out),
        ],  # fmt: skip
        cwd=ROOT,
        env=host.child_env(),
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as handle:
        document = json.load(handle)
    lines = [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.startswith("{")
    ]
    return document, lines, elapsed, str(out)


@pytest.fixture(scope="session")
def untraced(tmp_path_factory):
    return _quick(tmp_path_factory, 0)


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    return _quick(tmp_path_factory, 1)


def test_spec_obeys_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }  # fmt: skip
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("which", ["untraced", "traced"])
def test_every_workload_reports_every_metric(which, request):
    document, lines, _elapsed, _out = request.getfixturevalue(which)
    key = "end_to_end" if which == "untraced" else "per_layer"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    results = {r["workload"]: r for r in document["results"]}
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    assert len(lines) == len(results)
    for result, line in zip(results.values(), lines):
        # The contract's result line: exactly these keys, whole counts.
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert line["failed"] == 0 and result["failed"] == 0
        got = {n: m["unit"] for n, m in line["metrics"].items()}
        assert got == want
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        assert not result["info"]["problems"]


def test_end_to_end_values_are_never_zero(untraced):
    for result in untraced[0]["results"]:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (result["workload"], name)


def test_sim_digests_are_stable_across_passes(untraced, traced):
    first = {r["workload"]: r["info"] for r in untraced[0]["results"]}
    second = {r["workload"]: r["info"] for r in traced[0]["results"]}
    sims = [w for w in first if w.startswith("sim-")]
    assert len(sims) == 3
    for workload in sims:
        for key in compare.IDENTITY_KEYS:
            assert first[workload][key] == second[workload][key]


def test_traced_pass_reproduces_the_bypass_structure(traced):
    values = {
        r["workload"]: {n: m["value"] for n, m in r["metrics"].items()}
        for r in traced[0]["results"]
    }

    def share(workload, layer):
        total = sum(
            v for n, v in values[workload].items() if n.endswith(".self_s")
        )
        return values[workload][f"{layer}.self_s"] / total

    assert share("sim-paper-sync", "core") < share(
        "sim-paper-delayed", "core"
    ) / 4
    rt = values["rt-commit"]
    assert rt["sim.self_s"] == 0 and share("rt-commit", "storage") < 0.02
    assert rt["net.wire.self_s"] > 0 and rt["asyncio.self_s"] > 0
    assert rt["net.wire.frames"] > 0 and rt["rt.shard_cpu_s"] > 0
    for workload in values:
        if workload.startswith("sim-"):
            for layer in ("net.wire", "rt", "asyncio"):
                assert values[workload][f"{layer}.self_s"] == 0
            assert values[workload]["sim.events"] > 0


def test_quick_passes_finish_in_a_minute(untraced, traced):
    assert untraced[2] + traced[2] < 60


def test_compare_accepts_a_run_against_itself(untraced, capsys):
    assert compare.main([untraced[3], untraced[3]]) == 0
    table = capsys.readouterr().out
    for workload in SPEC["workloads"]:
        assert workload["name"] in table
    assert "DIFFERENT" not in table and "BEYOND" not in table


def test_worsening_is_signed_by_direction():
    assert compare.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert compare.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert compare.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_repetition_counts_are_fixed(untraced):
    from perf.run import QUICK_REPS

    for result in untraced[0]["results"]:
        info = result["info"]
        assert info["repetitions"] == QUICK_REPS
        assert result["attempted"] == QUICK_REPS * info["ops_per_repetition"]


def test_nothing_is_left_behind(untraced, traced):
    assert not os.listdir(host.TMP)
