"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run one workload on one system and print the result summary.
    ``--json`` emits the result as a JSON object instead of tables;
    ``--trace PATH`` additionally records a causal trace (Chrome
    ``trace_event`` JSON, Perfetto-loadable).
``compare``
    Run one workload across all four Fig. 3 systems, normalised.
    Accepts ``--json`` and ``--trace PATH`` too (one trace file per
    system, the system name suffixed to the path stem).
``trace``
    Run one workload with full causal tracing and export the per-update
    span trees (``--format chrome`` for Perfetto, ``jsonl`` for grep);
    prints a plain-text span summary and the count of complete
    enqueue->merge->compound->commit->dispatch chains.
``stats``
    Run one workload with the metrics registry enabled and print every
    counter/gauge/histogram (queue depths, merge ratio, compound
    degrees, daemon utilisation, delegation hit-rate...).
``figures``
    List the benchmark modules that regenerate the paper's figures.
``bench``
    Fan a figure sweep (figure x seeds x configs) across worker
    processes with incremental result caching and write the
    machine-readable ``BENCH_sim.json`` report of model outputs (see
    ``benchmarks/harness.py``).
``slo``
    Run one workload across chosen systems with the tail-latency layer
    armed: per-op p50/p99/p999 tables, SLO verdicts
    (``--slo 'write:p99<=0.05,*:p999<=0.5'``, exit nonzero on
    violation), critical-path stage breakdown for the slowest decile,
    a fault-annotated timeline (``--timeline``), and a Perfetto trace
    with counter tracks (``--trace``).  ``run``/``compare`` also accept
    ``--slo`` for verdicts inline.
``crash``
    Crash a busy delayed-commit cluster at a chosen instant and judge
    recovery with the checker's crash oracle (``judge_crash``).
``check``
    Systematic crash-schedule exploration (``repro.check``): enumerate
    crashes at protocol transition points, layer seeded nemesis fault
    combinations, judge every schedule against the invariant suite, and
    shrink failures to minimal replayable ``--faults`` specs.

Examples
--------
::

    python -m repro run --system redbud-delayed --workload xcdn-32K
    python -m repro run --system nfs3 --json
    python -m repro run --faults 'loss=0.1,mds_restart@0.5:0.2' --check
    python -m repro compare --workload varmail --duration 3
    python -m repro trace --system redbud-delayed --out t.json
    python -m repro stats --system redbud-delayed --workload varmail
    python -m repro slo --systems redbud-delayed,nfs3 \
        --slo 'write:p99<=0.05,*:p999<=0.5'
    python -m repro slo --shards 2 --faults 'mds_restart@0.5:0.2' \
        --timeline --trace slo.json
    python -m repro crash --at 0.4 --mode unordered
    python -m repro check --budget 200 --seed 0 --out check.json
    python -m repro bench --figure fig3 --seeds 8
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as _t

from repro.analysis import Table
from repro.consistency import crash_cluster
from repro.core.protocol import COMMIT_MODES
from repro.fs import build_cluster
from repro.fs.factory import SYSTEMS, shape_error
from repro.util import fmt_rate, fmt_time
from repro.workloads import PAPER_WORKLOADS


def _soak_workload() -> _t.Any:
    # Lazy: the slow-trickle soak mix lives in the check package, and
    # importing it here would drag the checker into every CLI start.
    from repro.check.soak import SoakWorkload

    return SoakWorkload()


WORKLOADS: _t.Dict[str, _t.Callable[[], _t.Any]] = dict(
    PAPER_WORKLOADS, soak=_soak_workload
)

FIGURES = {
    "fig1": "benchmarks/bench_fig1_overlap.py -- computing/I-O overlap",
    "fig3": "benchmarks/bench_fig3_overall.py -- 4 systems x 5 workloads",
    "fig4": "benchmarks/bench_fig4_merge_ratio.py -- I/O merge ratios",
    "fig5": "benchmarks/bench_fig5_seeks.py -- seek traces",
    "fig6": "benchmarks/bench_fig6_threads.py -- adaptive thread pool",
    "fig7": "benchmarks/bench_fig7_compound.py -- compound degree x daemons",
    "ablations": "benchmarks/bench_ablations.py -- design-knob ablations",
}


def _metric(workload_name: str):
    if workload_name.startswith("npb"):
        return lambda r: r.bytes_per_second
    return lambda r: r.ops_per_second


def _scalar_extras(extras: _t.Dict[str, _t.Any]) -> _t.Dict[str, _t.Any]:
    """Keep only JSON-friendly scalar extras (drop objects/samples)."""
    return {
        k: v
        for k, v in extras.items()
        if isinstance(v, (int, float, str, bool))
    }


def _result_dict(result: _t.Any) -> _t.Dict[str, _t.Any]:
    latency = result.latency()
    return {
        "system": result.system,
        "workload": result.workload,
        "duration": result.duration,
        "ops_completed": result.ops_completed,
        "ops_per_second": result.ops_per_second,
        "bytes_per_second": result.bytes_per_second,
        "latency": latency.as_dict(),
        "extras": _scalar_extras(result.extras),
    }


def _count(low: int) -> _t.Callable[[str], int]:
    """An argparse ``type``: an integer of at least ``low``, so a smaller
    one is refused at parse time (exit 2)."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _positive(text: str) -> float:
    """An argparse ``type``: a positive number."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


class _Refused(Exception):
    """A verb refuses its arguments before anything is built or run;
    :func:`main` prints ``error: <reason>`` and exits 2."""


def _trace_path(path: str, system: str) -> str:
    """``t.json`` + ``nfs3`` -> ``t-nfs3.json`` (for compare --trace)."""
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}-{system}"
    return f"{stem}-{system}.{ext}"


def _check_writable(path: _t.Optional[str]) -> None:
    """Fail before the (long) simulation, not at export time."""
    import os

    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _Refused(f"output directory does not exist: {parent}")


def _build_obs(args: argparse.Namespace) -> _t.Optional[_t.Any]:
    if not args.trace:
        return None
    from repro.obs import Instrumentation

    return Instrumentation()


def _parse_slo(text: _t.Optional[str]) -> _t.Any:
    """Parse ``--slo`` (None when absent)."""
    from repro.obs import SloSpec

    try:
        return SloSpec.parse(text) if text else None
    except ValueError as exc:
        raise _Refused(f"bad --slo spec: {exc}") from None


def _parse_faults(text: _t.Optional[str]) -> _t.Any:
    """Parse ``--faults`` (None when absent)."""
    from repro.faults import FaultSpec

    try:
        return FaultSpec.parse(text) if text else None
    except ValueError as exc:
        raise _Refused(f"bad --faults spec: {exc}") from None


def _refuse_shape(system: str, **shape: _t.Any) -> None:
    """Refuse, before anything is built, a shape only Redbud has."""
    error = shape_error(system, **shape)
    if error is not None:
        raise _Refused(error)


def _run_verb(
    args: argparse.Namespace,
    system: str,
    *,
    obs: _t.Optional[_t.Any] = None,
    check: bool = False,
    **build_kw: _t.Any,
) -> _t.Tuple[_t.Any, _t.Any]:
    """The run path every timed verb shares: build, run ``--workload``
    for ``--duration``, stop the injector, settle once, and return the
    cluster and the run's result.

    A Redbud cluster settles once, after the injector stops, when
    anything reads its tail: the injector's retries, a ``--check`` or a
    trace's causal chains.
    """
    cluster = build_cluster(
        system, num_clients=args.clients, seed=args.seed, obs=obs,
        **build_kw,
    )
    result = cluster.run_workload(
        WORKLOADS[args.workload](), duration=args.duration
    )
    if cluster.injector is not None:
        cluster.injector.stop()
    if cluster.injector is not None or check or obs is not None:
        if hasattr(cluster, "settle"):
            cluster.settle()
    return cluster, result


def _evaluate_slo(
    spec: _t.Any, result: _t.Any, obs: _t.Optional[_t.Any]
) -> _t.Tuple[_t.List[_t.Any], _t.FrozenSet[int]]:
    """Judge ``spec`` against a run, fault-excusing traced windows."""
    from repro.obs import Timeline

    tracer = obs.tracer if obs is not None else None
    timeline = Timeline.build(result.metrics, tracer)
    excused = timeline.fault_window_indexes
    return spec.evaluate(result.metrics, excused), excused


def _print_verdict(verdict: _t.Any) -> None:
    for line in verdict.summaries:
        print(f"check: {line}")
    for kind, detail in verdict.violations:
        print(f"check VIOLATION [{kind}]: {detail}")


def cmd_run(args: argparse.Namespace) -> int:
    _check_writable(args.trace)
    slo_spec = _parse_slo(args.slo)
    faults = _parse_faults(args.faults)
    shape = {
        "shards": args.shards,
        "witness_capacity": args.witness_capacity,
        "seed_bug": args.seed_bug,
    }
    _refuse_shape(
        args.system, faults=faults, check=args.check,
        processes=args.processes, **shape,
    )
    if faults is not None and faults.crash_at is not None:
        # A crash-cut schedule (e.g. a shrunken counterexample from
        # `repro check`): replay it through the check harness, which
        # drives the deterministic check workload, pulls the plug at
        # the requested instant, and judges recovery against the
        # full invariant suite.
        from repro.check import run_schedule

        outcome = run_schedule(
            faults, seed=args.seed, clients=args.clients,
            shards=args.shards, witness_capacity=args.witness_capacity,
        )
        print(
            f"crash schedule {faults.serialize()!r} replayed on the "
            f"check harness (seed={args.seed}, "
            f"clients={args.clients}, shards={args.shards}, "
            f"witness_capacity={args.witness_capacity})"
        )
        _print_verdict(outcome.verdict)
        print("PASS" if outcome.verdict.ok else "FAIL")
        return 0 if outcome.verdict.ok else 1
    config_kw: _t.Dict[str, _t.Any] = {}
    if args.processes is not None:
        config_kw["client_processes"] = args.processes
    if args.delegation_chunk is not None:
        config_kw["delegation_chunk"] = args.delegation_chunk
    obs = _build_obs(args)
    cluster, result = _run_verb(
        args, args.system, obs=obs, check=args.check, faults=faults,
        **shape, **config_kw,
    )
    injector = cluster.injector
    check_verdict = None
    if args.check:
        from repro.check import judge_converged, judge_live

        check_verdict = judge_live(cluster)
        # Liveness side: after settling, clients must be back on the
        # delayed path, GC running, witnesses draining -- the oracle a
        # shrunk soak counterexample fails on replay.
        converged = judge_converged(cluster)
        for kind, detail in converged.violations:
            check_verdict.add(kind, detail)
        check_verdict.summaries.extend(converged.summaries)
    if obs is not None:
        from repro.obs import write_chrome_trace

        count = write_chrome_trace(obs.tracer, args.trace)
        print(
            f"wrote {count} trace events to {args.trace}", file=sys.stderr
        )
    slo_results: _t.List[_t.Any] = []
    slo_excused: _t.FrozenSet[int] = frozenset()
    if slo_spec is not None:
        slo_results, slo_excused = _evaluate_slo(slo_spec, result, obs)
    slo_ok = all(r.passed for r in slo_results)
    if args.json:
        payload = _result_dict(result)
        for key in ("mds_per_shard", "witnesses"):
            # A per-shard list and the witness counters are not scalars,
            # which the scalar filter drops; both are JSON-friendly, so
            # carry them through.
            if key in result.extras:
                payload["extras"][key] = result.extras[key]
        if injector is not None:
            payload["faults"] = injector.summary()
        if check_verdict is not None:
            payload["check"] = check_verdict.as_dict()
        if slo_spec is not None:
            payload["slo"] = {
                "spec": slo_spec.describe(),
                "excused_windows": sorted(slo_excused),
                "results": [r.as_dict() for r in slo_results],
                "ok": slo_ok,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if check_verdict is not None and not check_verdict.ok:
            return 1
        return 0 if slo_ok else 1
    table = Table(
        ["metric", "value"],
        title=f"{args.system} / {args.workload} "
        f"({args.clients} clients, {args.duration:.1f}s virtual)",
    )
    table.add_row("ops completed", result.ops_completed)
    table.add_row("ops/s", result.ops_per_second)
    table.add_row("throughput", fmt_rate(result.bytes_per_second))
    table.add_row("mean op latency", fmt_time(result.latency().mean))
    table.add_row("p95 op latency", fmt_time(result.latency().p95))
    for key in ("merge_ratio", "array_utilization", "mean_compound_degree"):
        if key in result.extras:
            table.add_row(key, result.extras[key])
    table.print()
    for op in result.metrics.op_types():
        stats = result.latency(op)
        print(
            f"  {op:>12}: n={stats.count:<7} mean={fmt_time(stats.mean)} "
            f"p95={fmt_time(stats.p95)} p99={fmt_time(stats.p99)} "
            f"p999={fmt_time(stats.p999)}"
        )
    per_shard = result.extras.get("mds_per_shard")
    if per_shard:
        shard_table = Table(
            [
                "shard", "mds_requests", "mds_ops", "files", "free_bytes",
                "svc_p50", "svc_p99", "svc_p999",
            ],
            title="metadata shards",
        )
        for row in per_shard:
            shard_table.add_row(
                row["shard"],
                row["mds_requests"],
                row["mds_ops"],
                row["files"],
                row["free_bytes"],
                fmt_time(row["svc_p50"]),
                fmt_time(row["svc_p99"]),
                fmt_time(row["svc_p999"]),
            )
        shard_table.print()
    witnesses = result.extras.get("witnesses")
    if witnesses:
        witness_table = Table(
            ["witness metric", "value"], title="CURP witnesses"
        )
        for key, value in witnesses.items():
            witness_table.add_row(key, value)
        witness_table.print()
    if injector is not None:
        fault_table = Table(["fault metric", "value"], title="fault summary")
        for key, value in injector.summary().items():
            fault_table.add_row(key, value)
        for key in (
            "rpc_retries",
            "rpc_timeouts",
            "degraded_writes",
            "duplicate_commits_suppressed",
            "lease_gc_bytes_reclaimed",
        ):
            if key in result.extras:
                fault_table.add_row(key, result.extras[key])
        fault_table.print()
    if slo_spec is not None:
        from repro.obs import slo_table

        slo_table(
            slo_results,
            title=f"SLO: {args.system}",
            excused_windows=len(slo_excused),
        ).print()
    if check_verdict is not None:
        _print_verdict(check_verdict)
        if not check_verdict.ok:
            return 1
    return 0 if slo_ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    _check_writable(args.trace)
    slo_spec = _parse_slo(args.slo)
    metric = _metric(args.workload)
    results = {}
    slo_verdicts: _t.Dict[str, _t.List[_t.Any]] = {}
    for system in SYSTEMS:
        obs = _build_obs(args)
        _cluster, results[system] = _run_verb(args, system, obs=obs)
        if slo_spec is not None:
            slo_verdicts[system], _ = _evaluate_slo(
                slo_spec, results[system], obs
            )
        if obs is not None:
            from repro.obs import write_chrome_trace

            path = _trace_path(args.trace, system)
            count = write_chrome_trace(obs.tracer, path)
            print(
                f"  {system}: done ({count} trace events -> {path})",
                file=sys.stderr,
            )
        else:
            print(f"  {system}: done", file=sys.stderr)
    base = metric(results["redbud-original"])
    slo_ok = all(
        r.passed for verdicts in slo_verdicts.values() for r in verdicts
    )
    if args.json:
        payload = {
            "workload": args.workload,
            "baseline": "redbud-original",
            "systems": {
                system: dict(
                    _result_dict(r),
                    normalised=metric(r) / base if base else 0.0,
                )
                for system, r in results.items()
            },
        }
        if slo_spec is not None:
            payload["slo"] = {
                "spec": slo_spec.describe(),
                "ok": slo_ok,
                "systems": {
                    system: [r.as_dict() for r in verdicts]
                    for system, verdicts in slo_verdicts.items()
                },
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if slo_ok else 1
    table = Table(
        ["system", "ops/s", "throughput", "normalised"],
        title=f"{args.workload}: all systems (normalised to original Redbud)",
    )
    for system in SYSTEMS:
        r = results[system]
        table.add_row(
            system,
            r.ops_per_second,
            fmt_rate(r.bytes_per_second),
            metric(r) / base if base else 0.0,
        )
    table.print()
    if slo_spec is not None:
        from repro.obs import slo_table

        for system in SYSTEMS:
            slo_table(
                slo_verdicts[system], title=f"SLO: {system}"
            ).print()
    return 0 if slo_ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        Instrumentation,
        complete_chains,
        trace_summary,
        write_chrome_trace,
        write_jsonl,
    )

    _check_writable(args.out)
    obs = Instrumentation()
    # Settling lets background daemons drain, so in-flight updates
    # finish their enqueue->dispatch chains before export.
    _run_verb(args, args.system, obs=obs)
    if args.format == "chrome":
        count = write_chrome_trace(obs.tracer, args.out)
    else:
        count = write_jsonl(obs.tracer, args.out)
    print(trace_summary(obs.tracer))
    print(f"wrote {count} {args.format} records to {args.out}")
    # A delayed-commit run that produced no complete causal chain means
    # the instrumentation broke; flag it.
    if args.system == "redbud-delayed" and not complete_chains(obs.tracer):
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import Instrumentation, stats_table

    obs = Instrumentation()
    _run_verb(args, args.system, obs=obs)
    if args.json:
        print(
            json.dumps(obs.registry.snapshot(), indent=2, sort_keys=True)
        )
        return 0
    stats_table(
        obs.registry,
        title=f"{args.system} / {args.workload} metrics",
    ).print()
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs import (
        Instrumentation,
        Timeline,
        critical_path_table,
        decompose_updates,
        slo_table,
        timeline_counter_events,
        write_chrome_trace,
    )

    _check_writable(args.trace)
    _check_writable(args.out)
    spec = _parse_slo(args.slo)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    for system in systems:
        if system not in SYSTEMS:
            raise _Refused(
                f"unknown system {system!r}; choose from "
                f"{', '.join(SYSTEMS)}"
            )
    faults = _parse_faults(args.faults)
    if faults is not None and faults.crash_at is not None:
        raise _Refused("crash@T schedules belong to `repro run --check`")
    for system in systems:
        _refuse_shape(system, faults=faults, shards=args.shards)

    violated = False
    report: _t.Dict[str, _t.Any] = {
        "workload": args.workload,
        "clients": args.clients,
        "seed": args.seed,
        "duration": args.duration,
        "slo": spec.describe() if spec is not None else None,
        "faults": args.faults or None,
        "shards": args.shards,
        "systems": {},
    }
    for system in systems:
        obs = Instrumentation()
        cluster, result = _run_verb(
            args, system, obs=obs, faults=faults, shards=args.shards
        )
        injector = cluster.injector

        breakdowns = decompose_updates(obs.tracer)
        timeline = Timeline.build(result.metrics, obs.tracer, breakdowns)
        excused = timeline.fault_window_indexes
        verdicts = (
            spec.evaluate(result.metrics, excused)
            if spec is not None
            else []
        )
        if any(not r.passed for r in verdicts):
            violated = True

        entry: _t.Dict[str, _t.Any] = {
            "result": _result_dict(result),
            "per_op": {
                op: result.latency(op).as_dict()
                for op in result.metrics.op_types()
            },
            "excused_windows": sorted(excused),
            "slo": [r.as_dict() for r in verdicts],
            "critical_path_updates": len(breakdowns),
            "timeline": timeline.as_dicts(),
        }
        if injector is not None:
            entry["fault_summary"] = injector.summary()
        report["systems"][system] = entry

        if not args.json:
            tails = Table(
                ["op", "n", "p50", "p99", "p999", "max"],
                title=f"{system} / {args.workload}: op latency tails",
            )
            for op in result.metrics.op_types():
                stats = result.latency(op)
                tails.add_row(
                    op,
                    stats.count,
                    fmt_time(stats.p50),
                    fmt_time(stats.p99),
                    fmt_time(stats.p999),
                    fmt_time(stats.max),
                )
            tails.print()
            per_shard = result.extras.get("mds_per_shard")
            if per_shard:
                shard_table = Table(
                    ["shard", "svc_p50", "svc_p99", "svc_p999"],
                    title=f"{system}: metadata shard service tails",
                )
                for row in per_shard:
                    shard_table.add_row(
                        row["shard"],
                        fmt_time(row["svc_p50"]),
                        fmt_time(row["svc_p99"]),
                        fmt_time(row["svc_p999"]),
                    )
                shard_table.print()
            if breakdowns:
                critical_path_table(
                    breakdowns,
                    title=f"{system}: critical path, slowest decile "
                    "vs median cohort",
                ).print()
            if spec is not None:
                slo_table(
                    verdicts,
                    title=f"SLO: {system}",
                    excused_windows=len(excused),
                ).print()
            if args.timeline:
                timeline.table(title=f"{system} timeline").print()
        if args.trace:
            path = (
                _trace_path(args.trace, system)
                if len(systems) > 1
                else args.trace
            )
            count = write_chrome_trace(
                obs.tracer,
                path,
                extra_events=timeline_counter_events(timeline),
            )
            print(
                f"wrote {count} trace events (incl. SLO counter "
                f"tracks) to {path}",
                file=sys.stderr,
            )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote SLO report to {args.out}", file=sys.stderr)
    return 1 if violated else 0


def _load_harness() -> _t.Any:
    """Import ``benchmarks.harness``, tolerating source-tree layouts.

    The benchmarks directory sits next to ``src/`` rather than inside
    the package, so running from an installed ``repro`` needs the repo
    root pushed onto ``sys.path`` first.
    """
    try:
        from benchmarks import harness
    except ImportError:
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        if not (root / "benchmarks" / "harness.py").is_file():
            raise
        sys.path.insert(0, str(root))
        from benchmarks import harness
    return harness


def cmd_bench(args: argparse.Namespace) -> int:
    return _load_harness().run_from_args(args)


def cmd_figures(_args: argparse.Namespace) -> int:
    table = Table(["figure", "bench"], title="Paper figures -> benches")
    for fig, bench in FIGURES.items():
        table.add_row(fig, bench)
    table.print()
    print("\nRun one with: pytest <bench file> --benchmark-only -s")
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    from repro.check import judge_crash
    from repro.fs import ClusterConfig

    config = ClusterConfig(
        num_clients=args.clients,
        commit_mode=args.mode,
        space_delegation=(args.mode != "synchronous"),
    )
    cluster = build_cluster(config, seed=args.seed)
    env = cluster.env
    run = cluster.start_workload(WORKLOADS[args.workload]())
    env.run(until=env.all_of(run.setups))
    state = crash_cluster(cluster, at_time=env.now + args.at)
    print(
        f"crash at t={state.crash_time:.3f}s: lost "
        f"{state.lost_commit_records} commit records, "
        f"{state.lost_block_requests} in-flight block writes"
    )
    verdict = judge_crash(cluster, state)
    _print_verdict(verdict)
    return 0 if verdict.ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import explore

    _check_writable(args.out)
    # Self-test hook: plant a deliberate bug (e.g. disable the MDS's
    # durable commit dedup table) and prove the checker finds it and
    # shrinks it to a minimal replayable schedule.
    report = explore(
        budget=args.budget,
        seed=args.seed,
        clients=args.clients,
        mode=args.mode,
        shards=args.shards,
        witness_capacity=args.witness_capacity,
        seed_bug=args.seed_bug,
        max_counterexamples=args.max_counterexamples,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote report to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
        cov = report.coverage
        print(
            f"coverage: {len(cov['covered'])}/{len(cov['universe'])} "
            f"transition points"
            + (f" (missed: {', '.join(cov['missed'])})" if cov["missed"]
               else "")
        )
        for schedule in report.schedules:
            if not schedule["ok"]:
                print(
                    f"FAIL [{schedule['kind']}] {schedule['describe']} "
                    f"-> {', '.join(schedule['violation_kinds'])}"
                )
        for ce in report.counterexamples:
            d = ce.as_dict()
            print(
                f"counterexample ({d['minimal_clauses']} clauses, "
                f"{', '.join(d['kinds'])}): {d['minimal']}"
            )
            print(f"  replay: {d['replay']}")
        if args.seed_bug != "none" and report.counterexamples:
            print(
                f"note: schedules fail only with the seeded bug "
                f"({args.seed_bug}); the replay commands PASS on the "
                f"healthy system"
            )
    return 0 if report.ok else 1


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.check.soak import run_soak

    _check_writable(args.out)
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else None

    def emit(payload: _t.Dict[str, _t.Any]) -> None:
        line = json.dumps(payload, sort_keys=True)
        if out_fh is not None:
            out_fh.write(line + "\n")
            out_fh.flush()
        if args.json:
            print(line)

    try:
        report = run_soak(
            args.hours,
            seed=args.seed,
            intensity=args.intensity,
            clients=args.clients,
            shards=args.shards,
            witness_capacity=args.witness_capacity,
            seed_bug=args.seed_bug,
            emit=emit,
        )
    finally:
        if out_fh is not None:
            out_fh.close()
    if args.out:
        print(f"wrote JSONL report to {args.out}", file=sys.stderr)
    if not args.json:
        print(report.summary())
        for violation in report.violations:
            tag = (
                f"excused by faults {violation.excused_by}"
                if violation.excused
                else "UNEXCUSED"
            )
            print(
                f"  t={violation.time:.3f} [{violation.source}/"
                f"{violation.kind}] {violation.detail} -- {tag}"
            )
        if report.counterexample is not None:
            ce = report.counterexample
            print(f"counterexample window: {ce['schedule']}")
            if ce["minimal"] is not None:
                print(f"  minimal: {ce['minimal']}")
                print(f"  replay: {ce['replay']}")
            else:
                print(
                    "  (window did not reproduce on the short-horizon "
                    "harness; see the JSONL timeline)"
                )
        print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot a live sharded metadata cluster: one process per shard."""
    import os
    import signal
    import subprocess

    def interrupt(signum: int, frame: _t.Any) -> None:
        raise KeyboardInterrupt

    os.makedirs(args.data_dir, exist_ok=True)
    children: _t.List[subprocess.Popen] = []
    addresses: _t.List[_t.List[_t.Any]] = []
    # SIGTERM's default action exits without unwinding, which would skip
    # the ``finally`` below and orphan the shards: take the ^C path.
    previous_sigterm = signal.signal(signal.SIGTERM, interrupt)
    try:
        for shard in range(args.shards):
            cmd = [
                sys.executable,
                "-m",
                "repro",
                "serve-shard",
                "--shard",
                str(shard),
                "--shards",
                str(args.shards),
                "--data-dir",
                args.data_dir,
                "--port",
                "0",
                "--volume-size",
                str(args.volume_size),
                "--daemons",
                str(args.daemons),
                "--drop-every",
                str(args.drop_every),
            ]
            children.append(
                subprocess.Popen(
                    cmd,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            )
        for shard, child in enumerate(children):
            assert child.stdout is not None
            while True:
                line = child.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"shard {shard} exited before READY "
                        f"(rc={child.poll()})"
                    )
                line = line.strip()
                if line.startswith("READY "):
                    fields = dict(
                        part.split("=", 1)
                        for part in line.split()[1:]
                    )
                    addresses.append(
                        ["127.0.0.1", int(fields["port"])]
                    )
                    print(line, flush=True)
                    break
        cluster = {
            "addresses": addresses,
            "shards": args.shards,
            "volume_size": args.volume_size,
        }
        cluster_path = os.path.join(args.data_dir, "cluster.json")
        with open(cluster_path, "w") as handle:
            json.dump(cluster, handle, indent=1)
        print(f"cluster up: {cluster_path}", flush=True)
        # Run until the shards exit (a `repro smoke` shutdown) or ^C.
        for child in children:
            child.wait()
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        # A second SIGTERM must not cut the clean-up short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for child in children:
            if child.poll() is None:
                child.terminate()
        for child in children:
            try:
                child.wait(timeout=5)
            except Exception:
                child.kill()
        signal.signal(signal.SIGTERM, previous_sigterm)


def cmd_serve_shard(args: argparse.Namespace) -> int:
    """Internal: run one metadata shard process (used by ``serve``)."""
    import asyncio

    from repro.rt.server import ShardConfig, serve_shard

    config = ShardConfig(
        shard=args.shard,
        shards=args.shards,
        data_dir=args.data_dir,
        port=args.port,
        volume_size=args.volume_size,
        num_daemons=args.daemons,
        drop_every=args.drop_every,
    )

    def ready(port: int) -> None:
        print(f"READY shard={args.shard} port={port}", flush=True)

    asyncio.run(serve_shard(config, ready=ready))
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    """Drive a workload against a live cluster and audit its state."""
    import asyncio
    import os

    from repro.rt.smoke import SmokeConfig, run_smoke

    _check_writable(args.report)
    cluster_path = os.path.join(args.data_dir, "cluster.json")
    try:
        with open(cluster_path) as handle:
            cluster = json.load(handle)
    except FileNotFoundError:
        raise _Refused(
            f"{cluster_path} not found -- is `repro serve` "
            "running with this --data-dir?"
        ) from None
    config = SmokeConfig(
        addresses=[(host, port) for host, port in cluster["addresses"]],
        data_dir=args.data_dir,
        shards=cluster["shards"],
        volume_size=cluster["volume_size"],
        clients=args.clients,
        files_per_client=args.files,
        file_size=args.file_size,
        seed=args.seed,
        timeout=args.timeout,
    )
    report = asyncio.run(run_smoke(config))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"wrote smoke report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(
            f"smoke: {config.clients} clients x {config.files_per_client} "
            f"files over {config.shards} shard(s): "
            f"{report['files_persisted']} files persisted, "
            f"{report['committed_bytes']} bytes committed"
        )
        for line in report["summaries"]:
            print(f"  {line}")
        for name, violations in sorted(report["oracles"].items()):
            state = "ok" if not violations else f"{len(violations)} violations"
            print(f"  oracle {name}: {state}")
            for detail in violations[:5]:
                print(f"    {detail}")
        print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Delayed Commit Protocol reproduction (CLUSTER 2012) -- "
            "simulated Redbud parallel file system"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, duration: bool = True) -> None:
        p.add_argument("--clients", type=_count(1), default=7)
        p.add_argument("--seed", type=int, default=11)
        if duration:
            p.add_argument("--duration", type=_positive, default=3.0)
        p.add_argument(
            "--workload", choices=sorted(WORKLOADS), default="xcdn-32K"
        )

    # One helper per flag several verbs declare; only the help differs.
    def json_flag(p: argparse.ArgumentParser, what: str) -> None:
        p.add_argument("--json", action="store_true", help=f"print {what}")

    def slo_flag(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("--slo", metavar="SPEC", default=None, help=help)

    def faults_flag(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("--faults", metavar="SPEC", default=None, help=help)

    def shards_flag(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("--shards", type=_count(1), default=1, help=help)

    def cluster_flags(p: argparse.ArgumentParser) -> None:
        """The redbud cluster shape ``run``, ``check`` and ``soak`` take."""
        shards_flag(
            p,
            "metadata shards (redbud systems only; default "
            "%(default)s, the single MDS); in check and soak >1 adds "
            "shard-aware nemesis clauses and the cross-shard "
            "disjointness oracle",
        )
        p.add_argument(
            "--witness-capacity",
            type=_count(0),
            default=0,
            metavar="N",
            help="CURP witness slots for unsynced commutative commits "
            "(redbud systems only; default %(default)s, the ordered "
            "path only); N > 0 arms the 1-RTT witness path in delayed "
            "mode, and a crash replays the witnessed ops",
        )
        p.add_argument(
            "--seed-bug",
            choices=("none", "dedup", "degrade"),
            default="none",
            help="deliberately plant a bug (self-tests; redbud systems "
            "only): 'dedup' disables the MDS commit dedup table, "
            "'degrade' suppresses the delayed->sync reversion so "
            "clients stay degraded after faults heal",
        )

    p_run = sub.add_parser("run", help="run one workload on one system")
    common(p_run)
    p_run.add_argument("--system", choices=SYSTEMS, default="redbud-delayed")
    json_flag(p_run, "the result as JSON")
    p_run.add_argument(
        "--trace",
        metavar="PATH",
        help="also record a causal trace (Chrome trace_event JSON)",
    )
    cluster_flags(p_run)
    faults_flag(
        p_run,
        "inject faults (redbud systems only); comma-separated "
        "clauses: loss=P, delay=P:MAX, partition=CID@T0-T1, "
        "mds_restart@T:D[:shard=K], client_death=CID@T, "
        "shard_partition=K@T0-T1, crash@T -- e.g. "
        "'loss=0.05,mds_restart@0.5:0.2,client_death=2@0.8'",
    )
    p_run.add_argument(
        "--processes",
        type=_count(1),
        default=None,
        metavar="P",
        help="simulated client nodes to multiplex --clients workload "
        "personalities onto (aggregate clients; default: one node per "
        "client). --clients 10000 --processes 16 runs a 10k-client "
        "population on 16 nodes. Cannot be combined with a --faults "
        "spec containing client_death clauses (client indexing assumes "
        "one node per client)",
    )
    p_run.add_argument(
        "--delegation-chunk",
        type=_count(1),
        default=None,
        metavar="BYTES",
        help="space-delegation chunk size (default 16 MiB). Lower it "
        "for huge --clients runs: every client pools two chunks, so "
        "10000 clients need chunks small enough to fit the volume "
        "(e.g. 1048576)",
    )
    slo_flag(
        p_run,
        "judge the run against SLO rules "
        "('[op:]metric<=seconds', comma-separated, e.g. "
        "'write:p99<=0.05,*:p999<=0.5'); exit nonzero on violation. "
        "With --trace, fault-active windows are excused",
    )
    p_run.add_argument(
        "--check",
        action="store_true",
        help="after the run (and settling), run fsck + the full "
        "invariant suite (safety + convergence); exit nonzero on any "
        "violation (redbud systems only)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run one workload on all systems")
    common(p_cmp)
    json_flag(p_cmp, "the results as JSON")
    p_cmp.add_argument(
        "--trace",
        metavar="PATH",
        help="record one causal trace per system (name suffixed)",
    )
    slo_flag(
        p_cmp,
        "judge every system against SLO rules; exit nonzero if "
        "any system violates (see `run --slo`)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_slo = sub.add_parser(
        "slo",
        help="tail-latency report: per-op quantiles, SLO verdicts, "
        "critical-path breakdown, fault-annotated timeline",
    )
    common(p_slo)
    p_slo.add_argument(
        "--systems",
        default="redbud-delayed,nfs3",
        help="comma-separated systems to run (default %(default)s)",
    )
    slo_flag(
        p_slo,
        "SLO rules '[op:]metric<=seconds' (comma-separated); "
        "metrics: p50 p90 p95 p99 p999 mean max; omit to report "
        "tails without verdicts",
    )
    shards_flag(p_slo, "metadata shards (redbud systems only)")
    faults_flag(
        p_slo,
        "inject faults (redbud systems only; same clauses as "
        "`run --faults`); fault-active windows are excused from "
        "SLO evaluation",
    )
    p_slo.add_argument(
        "--timeline",
        action="store_true",
        help="print the windowed telemetry timeline",
    )
    p_slo.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Perfetto trace with SLO counter tracks "
        "(name suffixed per system when several run)",
    )
    json_flag(p_slo, "the report as JSON")
    p_slo.add_argument(
        "--out", metavar="PATH", help="also write the JSON report here"
    )
    p_slo.set_defaults(func=cmd_slo)

    p_trace = sub.add_parser(
        "trace", help="run with causal tracing and export span trees"
    )
    common(p_trace)
    p_trace.add_argument(
        "--system", choices=SYSTEMS, default="redbud-delayed"
    )
    p_trace.add_argument(
        "--out", default="trace.json", help="output path (default %(default)s)"
    )
    p_trace.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome: Perfetto-loadable trace_event JSON; jsonl: one "
        "span/instant per line",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="run with metrics and print the registry"
    )
    common(p_stats)
    p_stats.add_argument(
        "--system", choices=SYSTEMS, default="redbud-delayed"
    )
    json_flag(p_stats, "the snapshot as JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_fig = sub.add_parser("figures", help="list figure benches")
    p_fig.set_defaults(func=cmd_figures)

    try:
        harness = _load_harness()
    except ImportError:  # installed without the benchmarks tree
        harness = None
    if harness is not None:
        p_bench = sub.add_parser(
            "bench",
            help="parallel, cached benchmark sweeps -> BENCH_sim.json",
        )
        harness.add_bench_arguments(p_bench)
        p_bench.set_defaults(func=cmd_bench)

    p_crash = sub.add_parser(
        "crash", help="crash + recover + judge with the crash oracle"
    )
    common(p_crash, duration=False)
    p_crash.add_argument("--mode", choices=COMMIT_MODES, default="delayed")
    p_crash.add_argument(
        "--at", type=_positive, default=0.3, help="crash after this many seconds"
    )
    p_crash.set_defaults(func=cmd_crash)

    p_check = sub.add_parser(
        "check",
        help="crash-schedule exploration + invariant checking + "
        "counterexample shrinking",
    )
    p_check.add_argument(
        "--budget",
        type=_count(1),
        default=200,
        help="schedules to explore (default %(default)s)",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--clients", type=_count(1), default=3)
    cluster_flags(p_check)
    p_check.add_argument(
        "--mode",
        choices=COMMIT_MODES,
        default="delayed",
        help="commit-protocol scope to check (unordered is the "
        "deliberately broken control)",
    )
    p_check.add_argument(
        "--max-counterexamples",
        type=int,
        default=3,
        help="failures to shrink (default %(default)s)",
    )
    p_check.add_argument(
        "--out", metavar="PATH", help="write the JSON report here"
    )
    json_flag(p_check, "the JSON report")
    p_check.set_defaults(func=cmd_check)

    p_soak = sub.add_parser(
        "soak",
        help="long-horizon soak: tracked nemesis + continuous "
        "liveness/safety oracles + counterexample shrinking",
    )
    p_soak.add_argument(
        "--hours",
        type=_positive,
        default=2.0,
        help="virtual hours of soak (default %(default)s)",
    )
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument(
        "--intensity",
        type=_positive,
        default=1.0,
        help="nemesis action rate multiplier (default %(default)s: "
        "one action per ~30 virtual seconds)",
    )
    p_soak.add_argument("--clients", type=_count(1), default=4)
    cluster_flags(p_soak)
    p_soak.add_argument(
        "--out",
        metavar="PATH",
        help="write the incremental JSONL timeline (inject/heal/"
        "violation/sweep events + final summary) here",
    )
    json_flag(p_soak, "the JSONL timeline to stdout")
    p_soak.set_defaults(func=cmd_soak)

    p_serve = sub.add_parser(
        "serve",
        help="boot a live sharded metadata cluster on localhost "
        "(one asyncio process per shard, real TCP)",
    )
    p_serve.add_argument("--shards", type=int, default=2)
    p_serve.add_argument(
        "--data-dir",
        default="./repro-data",
        help="volume file, cluster.json and shard dumps live here",
    )
    p_serve.add_argument(
        "--volume-size", type=int, default=256 * 1024 * 1024
    )
    p_serve.add_argument("--daemons", type=int, default=4)
    p_serve.add_argument(
        "--drop-every",
        type=int,
        default=0,
        help="drop every Nth request frame before delivery (0 = off): "
        "forces real retransmissions through the retry machinery",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_shard = sub.add_parser(
        "serve-shard", help="internal: one shard process of `serve`"
    )
    p_shard.add_argument("--shard", type=int, required=True)
    p_shard.add_argument("--shards", type=int, required=True)
    p_shard.add_argument("--data-dir", required=True)
    p_shard.add_argument("--port", type=int, default=0)
    p_shard.add_argument(
        "--volume-size", type=int, default=256 * 1024 * 1024
    )
    p_shard.add_argument("--daemons", type=int, default=4)
    p_shard.add_argument("--drop-every", type=int, default=0)
    p_shard.set_defaults(func=cmd_serve_shard)

    p_smoke = sub.add_parser(
        "smoke",
        help="drive the delayed-commit client stack against a live "
        "`serve` cluster, shut it down, and judge its on-disk state with "
        "the checker's oracle panel (ordered writes, fsck, shard "
        "disjointness, exactly-once, history) plus client expectations",
    )
    p_smoke.add_argument("--data-dir", default="./repro-data")
    p_smoke.add_argument("--clients", type=int, default=4)
    p_smoke.add_argument(
        "--files", type=int, default=6, help="files per client"
    )
    p_smoke.add_argument("--file-size", type=int, default=32 * 1024)
    p_smoke.add_argument("--seed", type=int, default=11)
    p_smoke.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="workload deadline in real seconds",
    )
    p_smoke.add_argument(
        "--report", metavar="PATH", help="write the JSON report here"
    )
    json_flag(p_smoke, "the report as JSON")
    p_smoke.set_defaults(func=cmd_smoke)
    return parser


def main(argv: _t.Optional[_t.List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
