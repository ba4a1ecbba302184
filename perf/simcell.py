"""The three ``SimEffects`` workloads: one deterministic cell, repeated.

A repetition builds a fresh cluster, populates the namespace through the
real protocol and runs the personality for a fixed virtual window.  The
same seed gives the same events, so every repetition of a run must yield
the same ``(ops_completed, scheduled_events, trace_sha256)``; only host
time varies, and ``perf.run`` reports the least disturbed repetition.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
import typing as _t
from dataclasses import dataclass, field

from perf.stats import Rep, counters, ratio, waited_quantile

# repro imports happen inside functions: perf.run puts src/ on sys.path
# before calling in, and importing this module must not require it.


class TimedPersonality:
    """Proxy around a workload personality; delegates everything.

    Notes the host clocks at the first ``op`` call: host time before that
    instant is set-up, after it the timed phase.
    """

    def __init__(self, inner: _t.Any) -> None:
        self._inner = inner
        self.first_op_wall: _t.Optional[float] = None
        self.first_op_cpu = 0.0

    def __getattr__(self, name: str) -> _t.Any:
        return getattr(self._inner, name)

    def op(self, ctx: _t.Any, thread_id: int) -> _t.Generator:
        if self.first_op_wall is None:
            self.first_op_wall = time.perf_counter()
            self.first_op_cpu = time.process_time()
        return self._inner.op(ctx, thread_id)


@dataclass
class SimCell:
    """One sim workload: how to build the cluster and the personality."""

    name: str
    system: str
    num_clients: int
    personality: _t.Callable[[], _t.Any]
    duration: float
    warmup: float
    #: Timed repetitions of an untraced run: a constant, never a budget.
    reps: int
    cluster_kw: _t.Dict[str, _t.Any] = field(default_factory=dict)
    #: A smaller cell run once and discarded instead of a full warm-up
    #: repetition (the 10k cell is too dear to throw one away).
    warm_clients: _t.Optional[int] = None
    #: The same seed gives the same events, so the host can only add
    #: time: the least disturbed repetition is the measurement.
    statistic = "best"
    latency_clock = (
        "virtual seconds per file-system operation that waited at all "
        "(RunResult's pooled histogram without its zero bucket)"
    )

    def warm(self, seed: int) -> None:
        clients = self.warm_clients or self.num_clients
        self._run(seed, clients, None)

    def rep(self, seed: int, trace: _t.Any = None) -> Rep:
        return self._run(seed, self.num_clients, trace)

    def _run(self, seed: int, clients: int, trace: _t.Any) -> Rep:
        from repro.consistency import check_ordered_writes
        from repro.fs import build_cluster

        kw = dict(self.cluster_kw)
        if "client_processes" in kw:
            kw["client_processes"] = min(kw["client_processes"], clients)
        gc.collect()
        with trace or contextlib.nullcontext():
            wall0 = time.perf_counter()
            cluster = build_cluster(
                self.system, num_clients=clients, seed=seed, **kw
            )
            proxy = TimedPersonality(self.personality())
            result = cluster.run_workload(
                proxy, duration=self.duration, warmup=self.warmup
            )
            wall1 = time.perf_counter()
            cpu1 = time.process_time()

        digest = hashlib.sha256()
        for row in cluster.blktrace.to_rows():
            digest.update(repr(row).encode())
        env = cluster.env
        ops = result.ops_completed
        problems: _t.List[str] = []
        if ops <= 0 or proxy.first_op_wall is None:
            problems.append("no operation completed in the window")
            proxy.first_op_wall = proxy.first_op_wall or wall1
        # Ordered writes: no extent committed at the MDS may reference
        # data the array has not made stable, at the instant we stopped.
        report = check_ordered_writes(cluster.namespace, cluster.array.stable)
        problems.extend(v.detail for v in report.violations[:5])
        failed = len(report.violations)

        extras = result.extras
        clients_ = cluster.clients
        retries = sum(c.rpc.retries for c in clients_)
        degraded = sum(c.degraded_writes for c in clients_)
        local = sum(c.space_local_allocs for c in clients_)
        remote = sum(c.space_rpc_allocs for c in clients_)
        hits, misses = extras["cache_hits"], extras["cache_misses"]
        mds_requests = extras["mds_requests"]
        rep_wall = wall1 - wall0
        latency = result.metrics.histogram()
        tallies = {
            "sim.events": env.scheduled_events,
            "sim.events_per_s": env.scheduled_events / rep_wall,
            "sim.host_s_per_virtual_s": rep_wall / env.now,
            "storage.requests_dispatched": cluster.array.ops_served,
            "storage.merge_ratio": extras["merge_ratio"],
            "storage.seek_fraction": extras["seek_analysis"].seek_fraction,
            "storage.array_utilization": extras["array_utilization"],
            "storage.cache_hit_ratio": ratio(hits, hits + misses),
            "core.commit_rpcs": extras.get("commit_rpcs", 0),
            "core.ops_committed": extras.get("ops_committed", 0),
            "core.mean_compound_degree": extras.get(
                "mean_compound_degree", 0.0
            ),
            "core.delegation_local_share": ratio(local, local + remote),
            "core.pool_peak_threads": max(
                (s.max_threads for s in extras.get("pool_summaries", ())),
                default=0,
            ),
            "mds.requests": mds_requests,
            "mds.ops_per_request": ratio(extras["mds_ops"], mds_requests),
            "mds.utilization": cluster.metadata.utilization,
            "mds.service_p99_ms": 1e3
            * max(s.service_hist.quantile(0.99) for s in cluster.metadata),
            "net.rpc_messages": extras["rpc_messages"],
            "net.rpc_retries": retries,
            "client.dirty_throttle_events": sum(
                c.dirty_throttle_events for c in clients_
            ),
            "client.degraded_writes": degraded,
            "fs.virtual_ops_per_s": result.ops_per_second,
        }
        return Rep(
            setup_s=proxy.first_op_wall - wall0,
            timed_wall_s=wall1 - proxy.first_op_wall,
            timed_cpu_s=cpu1 - proxy.first_op_cpu,
            ops=ops,
            attempted=ops,
            failed=failed,
            latency_p50_ms=1e3 * waited_quantile(latency, 0.50),
            latency_p99_ms=1e3 * waited_quantile(latency, 0.99),
            latency_samples=latency.count - latency.zero_count,
            identity=(ops, env.scheduled_events, digest.hexdigest()),
            counters=counters(tallies),
            problems=problems,
        )


def cells(quick: bool) -> _t.List[SimCell]:
    """The three sim workloads (``quick`` = self-test sizing only)."""
    from repro.workloads import FileserverWorkload, XcdnWorkload

    return [
        SimCell(
            name="sim-paper-delayed",
            system="redbud-delayed",
            num_clients=7,
            personality=lambda: XcdnWorkload(
                file_size=32 * 1024,
                seed_files_per_client=50 if quick else 200,
            ),
            duration=0.3 if quick else 2.0,
            warmup=0.2,
            reps=7,
        ),
        SimCell(
            name="sim-paper-sync",
            system="redbud-original",
            num_clients=7,
            personality=lambda: FileserverWorkload(
                seed_files_per_client=25 if quick else 100
            ),
            duration=0.3 if quick else 2.0,
            warmup=0.2,
            reps=12,
        ),
        SimCell(
            name="sim-scale-10k",
            system="redbud-delayed",
            num_clients=1000 if quick else 10000,
            personality=lambda: XcdnWorkload(
                file_size=32 * 1024,
                seed_files_per_client=2,
                threads_per_client=2,
            ),
            duration=0.5 if quick else 1.0,
            warmup=0.05,
            reps=2,
            cluster_kw={
                "client_processes": 16,
                "delegation_chunk": 1024 * 1024,
            },
            warm_clients=4,
        ),
    ]
