"""Recovery edge paths: accounting checks, idempotence, empty crashes."""

from repro.consistency import check_ordered_writes, crash_cluster, recover
from repro.consistency.crash import CrashState
from repro.fs import ClusterConfig, RedbudCluster
from repro.mds.allocation import SpaceManager
from repro.mds.extent import Extent
from repro.mds.namespace import Namespace
from repro.util.intervals import IntervalSet


def test_recover_idle_cluster_is_trivial():
    cluster = RedbudCluster(
        ClusterConfig(num_clients=2, commit_mode="delayed"), seed=1
    )
    state = crash_cluster(cluster, at_time=0.5)
    report = recover(state)
    assert report.recovered_consistent
    assert report.orphan_bytes_reclaimed == 0
    assert report.pre_check.files_checked == 0


def test_recovery_is_idempotent():
    cluster = RedbudCluster(
        ClusterConfig.space_delegation_config(num_clients=2), seed=1
    )
    env = cluster.env
    fs = cluster.clients[0]

    def app():
        for i in range(20):
            fid = yield from fs.create(f"f{i}")
            yield from fs.write(fid, 0, 32 * 1024)

    env.process(app())
    state = crash_cluster(cluster, at_time=0.05)
    first = recover(state)
    second = recover(state)
    assert first.recovered_consistent
    assert second.recovered_consistent
    assert second.orphan_bytes_reclaimed == 0  # nothing left to reclaim


def test_accounting_violation_detected():
    """If the allocator loses bytes, recovery's balance check says so."""
    ns = Namespace()
    sm = SpaceManager(volume_size=1 << 20, num_groups=1, cursor_align=0)
    off = sm.alloc(4096, client_id=0)
    # Commit metadata for the extent...
    meta = ns.create("f", now=0.0)
    ns.commit_extents(
        meta.file_id,
        [Extent(file_offset=0, length=4096, device_id=0,
                volume_offset=off)],
        now=1.0,
    )
    sm.note_committed(off, 4096)
    # ...then sabotage the allocator: leak an extra allocation that is
    # neither committed nor tracked as uncommitted.
    sm.groups[0].alloc(8192)
    stable = IntervalSet([(off, off + 4096)])
    state = CrashState(
        crash_time=1.0,
        shards=((ns, sm),),
        stable=stable,
        lost_commit_records=0,
        lost_block_requests=0,
    )
    report = recover(state)
    assert not report.recovered_consistent
    assert any(
        v.kind == "space-accounting" for v in report.post_check.violations
    )


def test_checker_counts_committed_bytes():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    ns.commit_extents(
        meta.file_id,
        [
            Extent(file_offset=0, length=4096, device_id=0,
                   volume_offset=0),
            Extent(file_offset=4096, length=8192, device_id=0,
                   volume_offset=8192),
        ],
        now=1.0,
    )
    stable = IntervalSet([(0, 4096), (8192, 16384)])
    report = check_ordered_writes(ns, stable)
    assert report.consistent
    assert report.committed_bytes == 12288
    assert report.extents_checked == 2
