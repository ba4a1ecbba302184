"""xcdn-specific behaviours: cold serves, registry growth, mixes."""

import pytest

from repro.analysis.metrics import OpMetrics
from repro.fs import ClusterConfig, RedbudCluster
from repro.util.rng import StreamRNG
from repro.workloads import XcdnWorkload
from repro.workloads.spec import WorkloadContext


def run(wl, num_clients=2, duration=1.0, commit_mode="delayed"):
    config = ClusterConfig(
        num_clients=num_clients,
        commit_mode=commit_mode,
        space_delegation=(commit_mode == "delayed"),
    )
    cluster = RedbudCluster(config, seed=5)
    return cluster, cluster.run_workload(wl, duration=duration, warmup=0.1)


def test_serves_hit_disk_not_cache():
    """Cold serves: the whole point of the scattered seed corpus."""
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=10,
                      threads_per_client=2, write_fraction=0.3)
    cluster, res = run(wl)
    hits = sum(c.cache.hits for c in cluster.clients)
    misses = sum(c.cache.misses for c in cluster.clients)
    assert misses > 3 * hits


def test_reads_only_touch_seeds():
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=6,
                      threads_per_client=2)
    cluster, res = run(wl)
    # No short reads: every served object exists and is committed.
    assert sum(c.short_reads for c in cluster.clients) == 0


def test_namespace_grows_with_ingest():
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=4,
                      threads_per_client=2)
    cluster, res = run(wl)
    seeded = 2 * 4
    created_total = len(cluster.metadata.shard(0).namespace) - seeded
    assert created_total > 0
    # Measured creates exclude warmup-time and cut-off in-flight ones.
    assert 0 < res.metrics.count("create") <= created_total


def test_recommended_cache_scales_with_corpus():
    small = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=10)
    large = XcdnWorkload(file_size=1024 * 1024, seed_files_per_client=10)
    assert large.recommended_cache_capacity > small.recommended_cache_capacity


def test_name_derived_from_size():
    assert XcdnWorkload(file_size=32 * 1024).name == "xcdn-32K"
    assert XcdnWorkload(file_size=1024 * 1024).name == "xcdn-1024K"


def test_write_fraction_extremes():
    wl = XcdnWorkload(file_size=32 * 1024, write_fraction=1.0,
                      seed_files_per_client=3, threads_per_client=2)
    cluster, res = run(wl, duration=0.5)
    assert res.metrics.count("read") == 0
    assert res.metrics.count("write") > 0


def test_serve_with_empty_corpus_is_noop():
    """A read roll with no seeds must not crash (picks nothing)."""
    env_cfg = ClusterConfig(num_clients=1, commit_mode="synchronous")
    cluster = RedbudCluster(env_cfg, seed=5)
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=0,
                      write_fraction=0.0, threads_per_client=1)
    ctx = WorkloadContext(
        env=cluster.env,
        fs=cluster.clients[0],
        rng=StreamRNG(1).stream("x"),
        client_index=0,
        num_clients=1,
        metrics=OpMetrics(),
        shared={},
    )

    def one_op():
        yield from wl.op(ctx, 0)

    proc = cluster.env.process(one_op())
    cluster.env.run(until=proc)
    assert ctx.metrics.count("read") == 0
