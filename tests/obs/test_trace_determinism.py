"""Tracing must not perturb the simulation (the zero-perturbation rule).

A traced run and an untraced run of the same seeded cluster must produce
byte-identical BlkTrace rows and identical workload metrics: the hooks
only record, so turning them on cannot change event ordering, RNG
consumption, or any timing.
"""

import pytest

from repro.fs import build_cluster
from repro.obs import Instrumentation
from repro.workloads import VarmailWorkload, XcdnWorkload


def _run(system, workload_factory, obs):
    cluster = build_cluster(system, num_clients=2, seed=11, obs=obs)
    result = cluster.run_workload(
        workload_factory(), duration=1.0, warmup=0.1
    )
    rows = (
        cluster.blktrace.to_rows()
        if hasattr(cluster, "blktrace")
        else None
    )
    return cluster, result, rows


def _xcdn():
    return XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=5, threads_per_client=2
    )


def _varmail():
    return VarmailWorkload(seed_files_per_client=5)


@pytest.mark.parametrize(
    "system", ["redbud-delayed", "redbud-original", "nfs3", "pvfs2"]
)
def test_tracing_does_not_change_blktrace(system):
    bare_cluster, bare_result, bare_rows = _run(system, _xcdn, obs=None)
    traced_cluster, traced_result, traced_rows = _run(
        system, _xcdn, obs=Instrumentation()
    )
    assert bare_rows == traced_rows
    assert bare_cluster.env.now == traced_cluster.env.now
    assert bare_result.ops_completed == traced_result.ops_completed
    assert bare_result.metrics.total_bytes == (
        traced_result.metrics.total_bytes
    )
    assert bare_result.latency().mean == traced_result.latency().mean


def test_tracing_does_not_change_final_time_varmail():
    bare_cluster, bare_result, bare_rows = _run(
        "redbud-delayed", _varmail, obs=None
    )
    traced_cluster, traced_result, traced_rows = _run(
        "redbud-delayed", _varmail, obs=Instrumentation()
    )
    assert bare_rows == traced_rows
    assert bare_cluster.env.now == traced_cluster.env.now
    assert bare_result.latency().p95 == traced_result.latency().p95


def test_traced_run_actually_recorded_something():
    obs = Instrumentation()
    _run("redbud-delayed", _xcdn, obs=obs)
    assert len(obs.tracer.spans) > 0
    assert len(obs.tracer.events) > 0
    assert obs.probe.steps > 0


def test_traced_nfs3_run_records_its_storage_layer():
    obs = Instrumentation()
    _run("nfs3", _xcdn, obs=obs)
    assert obs.tracer.spans_named("disk_dispatch")


def test_two_traced_runs_identical_trace():
    obs_a = Instrumentation()
    obs_b = Instrumentation()
    _run("redbud-delayed", _xcdn, obs=obs_a)
    _run("redbud-delayed", _xcdn, obs=obs_b)
    from repro.obs import to_jsonl_records

    assert to_jsonl_records(obs_a.tracer) == to_jsonl_records(obs_b.tracer)
