"""NPB's collective-vs-strided I/O asymmetry and barrier semantics."""

import pytest

from repro.fs import ClusterConfig, Pvfs2Cluster, RedbudCluster
from repro.workloads import NpbBtIoWorkload


def run_redbud(commit_mode="synchronous", duration=1.5, **wl_kw):
    config = ClusterConfig(
        num_clients=3,
        commit_mode=commit_mode,
        space_delegation=(commit_mode == "delayed"),
    )
    cluster = RedbudCluster(config, seed=7)
    wl = NpbBtIoWorkload(
        slab_size=256 * 1024, compute_time=0.005, steps_per_barrier=2,
        **wl_kw,
    )
    return cluster, cluster.run_workload(wl, duration=duration, warmup=0.1)


def test_posix_path_issues_strided_pieces():
    cluster, res = run_redbud(strided_pieces=4)
    writes = res.metrics.count("write")
    nbytes = res.metrics.bytes_for("write")
    # 4 strided records per slab: mean write size is slab/4.
    assert nbytes / writes == pytest.approx(256 * 1024 / 4)


def test_collective_path_issues_whole_slabs():
    config = ClusterConfig(num_clients=3, commit_mode="synchronous")
    cluster = Pvfs2Cluster(config, seed=7)
    wl = NpbBtIoWorkload(
        slab_size=256 * 1024, compute_time=0.005, steps_per_barrier=2
    )
    res = cluster.run_workload(wl, duration=1.5, warmup=0.1)
    writes = res.metrics.count("write")
    nbytes = res.metrics.bytes_for("write")
    assert nbytes / writes == pytest.approx(256 * 1024)


def test_barrier_synchronises_ranks():
    cluster, res = run_redbud()
    # Every rank passes the same number of barriers (+-1 at the cutoff).
    barriers = res.metrics.count("barrier")
    assert barriers % 3 in (0, 1, 2)
    assert barriers >= 3


def test_epoch_sync_makes_data_durable():
    cluster, res = run_redbud(commit_mode="delayed")
    cluster.settle(2.0)
    mds = cluster.metadata.shard(0)
    # All written bytes that were fsync'd are committed at the MDS.
    committed = sum(
        meta.committed_bytes() for meta in mds.namespace.all_files()
    )
    assert committed > 0
    # And consistent with stable data.
    from repro.consistency import check_ordered_writes

    report = check_ordered_writes(
        mds.namespace, cluster.array.stable, mds.space
    )
    assert report.consistent


def test_verify_reads_cover_last_epoch():
    cluster, res = run_redbud()
    per_epoch_bytes = 2 * 256 * 1024  # steps_per_barrier * slab
    verify_bytes = res.metrics.bytes_for("verify-read")
    syncs = res.metrics.count("sync")
    assert verify_bytes >= syncs * per_epoch_bytes * 0.5


def test_compute_phase_recorded():
    cluster, res = run_redbud()
    assert res.latency("compute").mean == pytest.approx(0.005)
