"""End-to-end integration: whole clusters running whole workloads."""

import pytest

from repro.consistency import check_ordered_writes
from repro.fs import ClusterConfig, RedbudCluster, build_cluster
from repro.fs.factory import SYSTEMS
from repro.workloads import VarmailWorkload, XcdnWorkload


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_system_runs_xcdn(system):
    cluster = build_cluster(system, num_clients=3, seed=9)
    workload = XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=6, threads_per_client=2
    )
    result = cluster.run_workload(workload, duration=1.0, warmup=0.1)
    assert result.ops_completed > 10
    assert result.metrics.count("write") > 0
    assert result.system == cluster.system_name
    assert result.duration == 1.0


def test_delayed_commit_beats_sync_on_small_files():
    """The headline effect survives an end-to-end run."""

    def throughput(commit_mode, delegation):
        config = ClusterConfig(
            num_clients=3,
            commit_mode=commit_mode,
            space_delegation=delegation,
        )
        cluster = RedbudCluster(config, seed=9)
        workload = XcdnWorkload(
            file_size=32 * 1024,
            seed_files_per_client=8,
            threads_per_client=4,
        )
        result = cluster.run_workload(workload, duration=2.0, warmup=0.2)
        return result.ops_per_second

    sync = throughput("synchronous", False)
    delayed = throughput("delayed", True)
    assert delayed > 1.1 * sync


def test_cluster_state_consistent_after_clean_run():
    config = ClusterConfig.space_delegation_config(num_clients=3)
    cluster = RedbudCluster(config, seed=9)
    workload = XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=6, threads_per_client=2
    )
    cluster.run_workload(workload, duration=1.0, warmup=0.1)
    cluster.settle(3.0)  # let background commits land
    mds = cluster.metadata.shard(0)
    report = check_ordered_writes(mds.namespace, cluster.array.stable, mds.space)
    assert report.consistent, report.summary()
    mds.space.check_invariants()
    mds.namespace.check_invariants()


def test_extras_are_populated_for_redbud():
    config = ClusterConfig.space_delegation_config(num_clients=2)
    cluster = RedbudCluster(config, seed=9)
    result = cluster.run_workload(
        XcdnWorkload(file_size=32 * 1024, seed_files_per_client=5,
                     threads_per_client=2),
        duration=1.0,
    )
    extras = result.extras
    assert extras["merge_ratio"] >= 1.0
    assert extras["seek_analysis"].dispatches > 0
    assert 0.0 <= extras["array_utilization"] <= 1.0
    assert extras["mds_requests"] > 0
    assert len(extras["pool_samples"]) == 2
    assert extras["commit_rpcs"] > 0
    assert extras["ops_committed"] > 0


def test_fsync_heavy_workload_commits_everything():
    config = ClusterConfig.space_delegation_config(num_clients=2)
    cluster = RedbudCluster(config, seed=9)
    result = cluster.run_workload(
        VarmailWorkload(seed_files_per_client=6),
        duration=1.0,
    )
    cluster.settle(3.0)
    # No file may be left with pending (uncommitted) records.
    for client in cluster.clients:
        assert client.pending_commit_count() == 0
    assert result.metrics.count("fsync") > 0


def test_run_result_speedup_helper():
    config = ClusterConfig.original_redbud(num_clients=2)
    cluster = RedbudCluster(config, seed=9)
    wl = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=5,
                      threads_per_client=2)
    res = cluster.run_workload(wl, duration=1.0)
    assert res.speedup_over(res) == pytest.approx(1.0)
