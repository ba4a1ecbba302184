"""Tests for the run harness: measurement windows, results, validation."""

import pytest

from repro.fs import ClusterConfig, RedbudCluster
from repro.fs.base import RunResult
from repro.workloads import XcdnWorkload
from repro.workloads.spec import Workload, WorkloadContext, timed


class CountingWorkload(Workload):
    """Deterministic 1-op-per-10ms personality for harness tests."""

    name = "counting"
    threads_per_client = 2
    think_time = 0.0

    def op(self, ctx: WorkloadContext, thread_id: int):
        start = ctx.env.now

        def tick(env):
            yield env.timeout(0.01)
            return "ok"

        yield from timed(ctx, "tick", tick(ctx.env), nbytes=100)


def make_cluster(num_clients=2):
    return RedbudCluster(
        ClusterConfig(num_clients=num_clients, commit_mode="synchronous"),
        seed=1,
    )


def test_measurement_excludes_warmup():
    cluster = make_cluster()
    result = cluster.run_workload(
        CountingWorkload(), duration=1.0, warmup=0.5
    )
    # 2 clients x 2 threads x (1.0s / 10ms) = ~400 measured ops; the 50
    # warmup ticks per thread must not be counted.
    assert 360 <= result.ops_completed <= 404
    assert result.duration == 1.0


def test_ops_per_second_uses_duration():
    cluster = make_cluster()
    result = cluster.run_workload(CountingWorkload(), duration=2.0)
    assert result.ops_per_second == pytest.approx(
        result.ops_completed / 2.0
    )
    assert result.bytes_per_second == pytest.approx(
        result.metrics.total_bytes / 2.0
    )


def test_invalid_duration_rejected():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        cluster.run_workload(CountingWorkload(), duration=0)


def test_speedup_over_zero_baseline_rejected():
    cluster = make_cluster()
    a = cluster.run_workload(CountingWorkload(), duration=0.5)
    from repro.analysis.metrics import OpMetrics

    empty = RunResult(
        system="x", workload="y", duration=1.0, metrics=OpMetrics()
    )
    with pytest.raises(ZeroDivisionError):
        a.speedup_over(empty)


def test_latency_breakdown_accessible():
    cluster = make_cluster()
    result = cluster.run_workload(CountingWorkload(), duration=0.5)
    stats = result.latency("tick")
    assert stats.mean == pytest.approx(0.01)
    assert result.latency().count == result.ops_completed


def test_two_sequential_runs_on_one_cluster():
    """The harness supports consecutive runs (clock keeps advancing)."""
    cluster = make_cluster()
    r1 = cluster.run_workload(CountingWorkload(), duration=0.5)
    t_mid = cluster.env.now
    r2 = cluster.run_workload(CountingWorkload(), duration=0.5)
    assert cluster.env.now > t_mid
    assert r2.ops_completed > 0
    assert r1.metrics is not r2.metrics


def test_xcdn_cache_recommendation_applied():
    cluster = make_cluster()
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=5,
                      threads_per_client=2)
    cluster.run_workload(wl, duration=0.3)
    assert (
        cluster.clients[0].cache.capacity
        == wl.recommended_cache_capacity
    )


def test_open_ended_run_leaves_setup():
    """After ``start_workload``'s setups, files xcdn creates at run time
    stay out of the seed corpus ``pick_file(seeds_only=True)`` draws
    from, and fault injection sees the setup phase as over."""
    cluster = RedbudCluster(
        ClusterConfig(
            num_clients=2, commit_mode="delayed", space_delegation=True
        ),
        seed=11,
    )
    run = cluster.start_workload(
        XcdnWorkload(file_size=32 * 1024, seed_files_per_client=25)
    )
    env = cluster.env
    env.run(until=env.all_of(run.setups))
    seeds = Workload.seed_registry(run.contexts[0])
    assert len(seeds) == 50
    env.run(until=env.now + 0.3)
    assert len(seeds) == 50
    assert cluster.setup_complete
    assert not any(ctx.in_setup for ctx in run.contexts)
    assert len(Workload.registry(run.contexts[0])) > 50
    run.stop()
