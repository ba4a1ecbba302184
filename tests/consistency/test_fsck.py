"""Tests for the fsck cross-check and free-space rebuild."""

import pytest

from repro.consistency import crash_cluster, fsck, recover, rebuild_free_space
from repro.fs import ClusterConfig, RedbudCluster
from repro.mds.allocation import SpaceManager
from repro.mds.extent import Extent
from repro.mds.namespace import Namespace


def ext(fo, ln, vo):
    return Extent(file_offset=fo, length=ln, device_id=0, volume_offset=vo)


def fresh(volume=1 << 20, groups=2):
    return Namespace(), SpaceManager(
        volume_size=volume, num_groups=groups, cursor_align=0
    )


def test_clean_books_pass():
    ns, sm = fresh()
    meta = ns.create("f", now=0.0)
    off = sm.alloc(4096, client_id=0)
    ns.commit_extents(meta.file_id, [ext(0, 4096, off)], now=1.0)
    sm.note_committed(off, 4096)
    report = fsck(ns, sm)
    assert report.clean, report.summary()
    assert report.committed_bytes == 4096
    assert report.free_bytes == (1 << 20) - 4096


def test_lost_claim_detected():
    """Metadata pointing at space the allocator freed = corruption."""
    ns, sm = fresh()
    meta = ns.create("f", now=0.0)
    off = sm.alloc(4096, client_id=0)
    ns.commit_extents(meta.file_id, [ext(0, 4096, off)], now=1.0)
    sm.note_committed(off, 4096)
    sm.free(off, 4096)  # sabotage: free committed space
    report = fsck(ns, sm)
    assert not report.clean
    assert report.lost_claimed == [(off, 4096)]


def test_leak_detected():
    ns, sm = fresh()
    sm.groups[0].alloc(8192)  # allocated outside all bookkeeping
    report = fsck(ns, sm)
    assert not report.clean
    assert report.leaked_bytes == 8192


def test_uncommitted_space_is_accounted_not_leaked():
    ns, sm = fresh()
    sm.alloc(4096, client_id=3)  # tracked as uncommitted
    report = fsck(ns, sm)
    assert report.clean
    assert report.uncommitted_bytes == 4096


def test_range_held_uncommitted_by_two_clients_detected():
    """Clients hold disjoint uncommitted space; a byte held by two would
    be retired from only one client's books when it commits."""
    ns, sm = fresh()
    off = sm.alloc(8192, client_id=0)
    sm.alloc(4096, client_id=1)
    sm.note_uncommitted(1, off + 4096, 8192)
    report = fsck(ns, sm)
    assert not report.clean
    assert report.lost_claimed == [(off + 4096, 4096)]


def test_rebuild_restores_exact_free_space():
    ns, sm = fresh()
    offsets = []
    for i in range(5):
        meta = ns.create(f"f{i}", now=0.0)
        off = sm.alloc(4096, client_id=0)
        ns.commit_extents(meta.file_id, [ext(0, 4096, off)], now=1.0)
        sm.note_committed(off, 4096)
        offsets.append(off)
    sm.alloc(9999, client_id=1)  # an orphan the rebuild must discard
    rebuilt = rebuild_free_space(ns, sm)
    assert rebuilt.free_bytes == (1 << 20) - 5 * 4096
    assert fsck(ns, rebuilt).clean
    rebuilt.check_invariants()


def test_rebuild_after_real_crash():
    cluster = RedbudCluster(
        ClusterConfig.space_delegation_config(num_clients=2), seed=3
    )
    env = cluster.env
    fs = cluster.clients[0]

    def app():
        for i in range(30):
            fid = yield from fs.create(f"f{i}")
            yield from fs.write(fid, 0, 32 * 1024)

    env.process(app())
    state = crash_cluster(cluster, at_time=0.05)
    ((namespace, space),) = state.shards
    rebuilt = rebuild_free_space(namespace, space)
    report = fsck(namespace, rebuilt)
    assert report.clean, report.summary()
    # The rebuild agrees with GC-based recovery on the free total.
    recover(state)
    assert rebuilt.free_bytes == space.free_bytes
