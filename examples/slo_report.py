#!/usr/bin/env python
"""End-to-end SLO report for a sharded, faulted delayed-commit run.

Runs xcdn on a 2-shard Redbud cluster with a mid-run MDS restart, then
produces everything the tail-latency layer offers:

- per-op latency tails (p50/p99/p999) from the log-bucketed histograms,
- per-shard MDS service-time tails,
- the critical-path stage breakdown (where the slowest decile of
  updates spends its time vs the median cohort),
- SLO verdicts with the restart's downtime window fault-excused,
- the windowed telemetry timeline,
- ``slo_report_trace.json``: a Perfetto-loadable trace whose counter
  tracks (throughput, latency quantiles, queue depth, merge ratio,
  fault-active, per-stage time) ride alongside the causal spans --
  open it at https://ui.perfetto.dev.

Run::

    python examples/slo_report.py
"""

from repro.faults import FaultSpec
from repro.fs import ClusterConfig, build_cluster
from repro.obs import (
    Instrumentation,
    SloSpec,
    Timeline,
    critical_path_table,
    decompose_updates,
    slo_table,
    timeline_counter_events,
    write_chrome_trace,
)
from repro.util import fmt_time
from repro.workloads import XcdnWorkload

TRACE_PATH = "slo_report_trace.json"
SLO = "write:p99<=0.05,create:p99<=0.05,*:p999<=0.5"


def main() -> None:
    obs = Instrumentation()
    cluster = build_cluster(
        ClusterConfig.delayed_commit(num_clients=3).with_shards(2),
        seed=11,
        obs=obs,
        faults=FaultSpec.parse("mds_restart@0.6:0.2:shard=1"),
    )

    print("=== xcdn on 2 metadata shards, shard 1 restarts at t=0.6 ===")
    result = cluster.run_workload(
        XcdnWorkload(file_size=32 * 1024, seed_files_per_client=15),
        duration=2.0,
    )
    cluster.injector.stop()
    cluster.settle()

    print(f"\n{result.ops_per_second:,.0f} ops/s; op latency tails:")
    for op in result.metrics.op_types():
        stats = result.latency(op)
        print(
            f"  {op:>8}: n={stats.count:<6} p50={fmt_time(stats.p50):>8} "
            f"p99={fmt_time(stats.p99):>8} p999={fmt_time(stats.p999):>8}"
        )

    print("\nper-shard MDS service-time tails:")
    for row in cluster.metadata.per_shard_stats():
        print(
            f"  shard {row['shard']}: p50={fmt_time(row['svc_p50']):>8} "
            f"p99={fmt_time(row['svc_p99']):>8} "
            f"p999={fmt_time(row['svc_p999']):>8} "
            f"(restarts={row['mds_restarts']})"
        )

    breakdowns = decompose_updates(obs.tracer)
    print(f"\n{len(breakdowns)} updates completed their causal chain")
    print(critical_path_table(breakdowns).render())

    timeline = Timeline.build(result.metrics, obs.tracer, breakdowns)
    spec = SloSpec.parse(SLO)
    verdicts = spec.evaluate(result.metrics, timeline.fault_window_indexes)
    print(
        slo_table(
            verdicts,
            excused_windows=len(timeline.fault_window_indexes),
        ).render()
    )
    print(timeline.table().render())

    count = write_chrome_trace(
        obs.tracer,
        TRACE_PATH,
        extra_events=timeline_counter_events(timeline),
    )
    print(
        f"\nwrote {count} events to {TRACE_PATH} -- load it in Perfetto "
        "and look for the 'slo-timeline' counter tracks"
    )
    if any(not v.passed for v in verdicts):
        raise SystemExit("SLO violated")


if __name__ == "__main__":
    main()
