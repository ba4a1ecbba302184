"""One command for the whole benchmark.

    python3 -m perf.run --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without ``--workload`` the four
workloads run in turn, each in a fresh interpreter exactly as above.
``--out FILE`` also writes everything measured as one JSON document, the
input of ``python3 -m perf.compare``.

A workload is one cell repeated: a discarded warm-up, then a fixed number
of timed repetitions, each doing the same fixed work, so two commits are
compared on identical work.  ``--seconds`` is accepted because the
driver passes it and changes nothing.  Every end-to-end value is one
statistic over those repetitions, named in the output.  The simulator's
work is deterministic, so the host can only add time to a repetition and
the *least disturbed* one (highest rate, lowest time) is reported; the
real-socket workload's scheduling differs from repetition to repetition
in both directions, so it reports the *median*.  Quartiles over the
repetitions are printed beside every value.  ``--quick`` is the self-test
sizing (tiny cells, one warm-up + two repetitions) and is never used for
a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import typing as _t

from perf import host
from perf.layers import Trace, attribute, calls_and_cumtime
from perf.stats import Rep, iqr_ratio, quartiles

QUICK_REPS = 2
#: Untraced repetitions before the traced one: the counters and the base
#: of ``bench.trace_overhead_ratio`` come from them.
TRACED_BASE_REPS = 2


def workloads(quick: bool) -> _t.Dict[str, _t.Any]:
    from perf import rtcell, simcell

    cells: _t.List[_t.Any] = simcell.cells(quick)
    cells.append(rtcell.RtCommit(quick))
    return {cell.name: cell for cell in cells}


def run_workload(
    cell: _t.Any,
    seed: int,
    traced: bool,
    quick: bool,
    spec: _t.Dict[str, _t.Any],
    calibration_s: float,
) -> _t.Dict[str, _t.Any]:
    """Warm up, repeat, (trace,) judge; everything measured, as a dict."""
    cold0 = time.perf_counter()
    cell.warm(seed)
    cold_s = time.perf_counter() - cold0
    count = QUICK_REPS if quick else cell.reps
    if traced:
        count = min(count, TRACED_BASE_REPS)
    reps = [cell.rep(seed) for _ in range(count)]
    trace = Trace() if traced else None
    traced_rep = cell.rep(seed, trace) if trace is not None else None

    judged = reps + ([traced_rep] if traced_rep is not None else [])
    problems = [p for rep in judged for p in rep.problems]
    identities = {rep.identity for rep in judged}
    if len(identities) > 1:
        problems.append(
            "repetitions of one deterministic cell disagree on "
            f"(ops, events, trace digest): {sorted(map(str, identities))}"
        )
    attempted = sum(rep.attempted for rep in judged)
    failed = sum(rep.failed for rep in judged)
    result: _t.Dict[str, _t.Any] = {
        "workload": cell.name,
        "seed": seed,
        "traced": traced,
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "info": {
            "repetitions": len(reps),
            "statistic": cell.statistic,
            "ops_per_repetition": reps[0].ops,
            "latency_samples_per_repetition": reps[0].latency_samples,
            "latency_clock": cell.latency_clock,
            "problems": problems,
        },
    }
    if reps[0].identity is not None:
        result["info"]["scheduled_events"] = reps[0].identity[1]
        result["info"]["trace_sha256"] = reps[0].identity[2]

    if trace is None or traced_rep is None:
        per_rep = {
            "setup_s": [r.setup_s for r in reps],
            "ops_per_s": [r.ops_per_s for r in reps],
            "cpu_ms_per_op": [r.cpu_ms_per_op for r in reps],
            "op_latency_p50_ms": [r.latency_p50_ms for r in reps],
            "op_latency_p99_ms": [r.latency_p99_ms for r in reps],
            "peak_rss_mb": [host.peak_rss_mb()],
        }
        metrics = {}
        for metric in spec["end_to_end"]:
            values = per_rep[metric["name"]]
            q1, median, q3 = quartiles(values)
            best = min if metric["better"] == "lower" else max
            metrics[metric["name"]] = {
                "value": best(values) if cell.statistic == "best" else median,
                "unit": metric["unit"],
                "q1": q1,
                "median": median,
                "q3": q3,
            }
        result["per_repetition"] = per_rep
    else:
        stats = trace.stats()
        values = dict(reps[-1].counters)
        values.update(attribute(stats))
        ops = traced_rep.ops or 1
        polls, _ = calls_and_cumtime(stats, "pop_next_for_spindle")
        encodes, encode_s = calls_and_cumtime(stats, "encode_frame", "wire.py")
        _, decode_s = calls_and_cumtime(stats, "feed", "wire.py")
        sends, _ = calls_and_cumtime(
            stats, "<method 'send' of '_socket.socket' objects>"
        )
        dispatched = traced_rep.counters["storage.requests_dispatched"]
        untraced_wall = statistics.median(r.timed_wall_s for r in reps)
        values.update(
            {
                "storage.polls_per_dispatch": (
                    polls / dispatched if dispatched else 0.0
                ),
                # Every frame is encoded once and decoded once.
                "net.wire.encode_us_per_frame": (
                    1e6 * encode_s / encodes if encodes else 0.0
                ),
                "net.wire.decode_us_per_frame": (
                    1e6 * decode_s / encodes if encodes else 0.0
                ),
                "rt.socket_sends_per_op": sends / ops,
                "bench.trace_overhead_ratio": (
                    traced_rep.timed_wall_s / untraced_wall
                ),
                "bench.calibration_s": calibration_s,
                "bench.cold_first_rep_s": cold_s,
                "bench.rep_iqr_ratio": iqr_ratio(
                    [r.timed_wall_s for r in reps]
                ),
            }
        )
        metrics = {
            metric["name"]: {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in spec["per_layer"]
        }
    result["metrics"] = metrics
    return result


def report(result: _t.Dict[str, _t.Any]) -> None:
    """Every metric by name and unit, then the contract's result line."""
    info = result["info"]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{info['repetitions']} timed repetitions  "
        f"{'traced' if result['traced'] else 'untraced'}  "
        f"values: {info['statistic']} repetition"
    )
    for name, metric in result["metrics"].items():
        spread = ""
        if "q1" in metric and metric["q1"] != metric["q3"]:
            spread = (
                f"   [repetitions: q1 {metric['q1']:.6g}  median "
                f"{metric['median']:.6g}  q3 {metric['q3']:.6g}]"
            )
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{spread}")
    print(
        f"  ops_attempted {result['attempted']}  ops_failed "
        f"{result['failed']}  ops/repetition {info['ops_per_repetition']}  "
        f"latency samples/repetition "
        f"{info['latency_samples_per_repetition']}"
    )
    print(f"  latency clock: {info['latency_clock']}")
    if "trace_sha256" in info:
        print(
            f"  scheduled_events {info['scheduled_events']}  "
            f"trace_sha256 {info['trace_sha256']}"
        )
    for problem in info["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                },
            }
        ),
        flush=True,
    )


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    spec = host.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="passed by the driver; repetition counts are fixed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.workload is None:
        document = run_each(names, args)
    else:
        host.ensure_repro_importable()
        cell = workloads(args.quick)[args.workload]  # fails here sans repro
        calibration_s = host.calibrate()
        header = dict(host.fingerprint(), calibration_s=calibration_s)
        print("host: " + json.dumps(header))
        result = run_workload(
            cell,
            args.seed,
            bool(args.trace),
            args.quick,
            spec,
            calibration_s,
        )
        report(result)
        document = {"host": header, "quick": args.quick, "results": [result]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return 0 if all(r["correct"] for r in document["results"]) else 1


def run_each(
    names: _t.Sequence[str], args: argparse.Namespace
) -> _t.Dict[str, _t.Any]:
    """Every workload in its own interpreter; their documents merged.

    A fresh process per workload keeps ``peak_rss_mb`` and the cold
    first repetition what they are when a workload runs alone.
    """
    document: _t.Dict[str, _t.Any] = {"quick": args.quick, "results": []}
    with host.scratch_dir("out-") as scratch:
        for name in names:
            out = os.path.join(scratch, f"{name}.json")
            command = [
                sys.executable, "-m", "perf.run",
                "--workload", name,
                "--seed", str(args.seed),
                "--trace", str(args.trace),
                "--out", out,
            ]  # fmt: skip
            if args.quick:
                command.append("--quick")
            subprocess.run(command, cwd=host.ROOT, env=host.child_env())
            if not os.path.exists(out):
                raise RuntimeError(f"workload {name} produced no result")
            with open(out) as handle:
                part = json.load(handle)
            document["host"] = part["host"]
            document["results"].extend(part["results"])
    return document


if __name__ == "__main__":
    raise SystemExit(main())
