"""Client-path coverage: delegation refills, throttling, segmentation."""

import pytest

from repro.sim import Environment
from tests.conftest import MiniCluster


def test_delegation_refill_on_pool_exhaustion(env):
    """Writes beyond the first chunk trigger a delegation RPC refill."""
    c = MiniCluster(env, commit_mode="delayed", delegation_chunk=64 * 1024)

    def ops(fs):
        fids = []
        for i in range(6):  # 6 x 32 KB > one 64 KB chunk
            fid = yield from fs.create(f"f{i}")
            yield from fs.write(fid, 0, 32 * 1024)
            fids.append(fid)
        for fid in fids:
            yield from fs.fsync(fid)

    c.run_ops(ops(c.client))
    pool = c.client.delegation_pools[0]
    assert pool.swaps >= 1
    assert pool.local_allocs == 6
    # Every file committed despite the pool churn.
    assert c.space.uncommitted_bytes(0) > 0  # leftover chunk space
    for fid in range(1, 7):
        assert c.namespace.get(fid).committed_bytes() == 32 * 1024


def test_large_write_bypasses_delegation(env):
    c = MiniCluster(env, commit_mode="delayed", delegation_chunk=64 * 1024)

    def ops(fs):
        fid = yield from fs.create("big")
        yield from fs.write(fid, 0, 1024 * 1024)  # > chunk size
        yield from fs.fsync(fid)
        return fid

    (fid,) = c.run_ops(ops(c.client))
    assert c.client.delegation_pools[0].local_allocs == 0  # went to the MDS
    assert c.namespace.get(fid).committed_bytes() == 1024 * 1024


def test_dirty_throttle_blocks_heavy_writer(env):
    c = MiniCluster(env, commit_mode="delayed",
                    delegation_chunk=16 * 1024 * 1024)
    c.client.dirty_limit = 128 * 1024  # tiny: throttle quickly

    def ops(fs):
        fid = yield from fs.create("stream")
        for i in range(24):
            yield from fs.write(fid, i * 64 * 1024, 64 * 1024)
        yield from fs.fsync(fid)

    c.run_ops(ops(c.client))
    assert c.client.dirty_throttle_events > 0
    assert c.client.cache.dirty_bytes == 0  # fully drained by fsync


def test_async_write_segmentation_counts(env):
    """A large async write submits multiple block requests; a sync-mode
    write of the same size submits one per extent."""
    delayed = MiniCluster(env, commit_mode="delayed",
                          delegation_chunk=16 * 1024 * 1024)

    def ops(fs):
        fid = yield from fs.create("f")
        yield from fs.write(fid, 0, 256 * 1024)
        yield from fs.fsync(fid)

    delayed.run_ops(ops(delayed.client))
    assert delayed.client.blockdev.scheduler.stats.submitted > 1

    env2 = Environment()
    sync = MiniCluster(env2, commit_mode="synchronous")

    def ops2(fs):
        fid = yield from fs.create("f")
        yield from fs.write(fid, 0, 256 * 1024)

    sync.run_ops(ops2(sync.client))
    assert sync.client.blockdev.scheduler.stats.submitted == 1


def test_fsync_expedites_plugged_writes(env):
    """fsync latency must not include the full write-plug delay."""
    c = MiniCluster(env, commit_mode="delayed",
                    delegation_chunk=16 * 1024 * 1024)
    times = {}

    def ops(fs):
        fid = yield from fs.create("f")
        yield from fs.write(fid, 0, 16 * 1024)
        t0 = c.env.now
        yield from fs.fsync(fid)
        times["fsync"] = c.env.now - t0

    c.run_ops(ops(c.client))
    # Plug default is 12ms; an expedited fsync completes well under it
    # plus disk service (sub-5ms on an idle array).
    assert times["fsync"] < 0.010


def test_write_validation(env):
    c = MiniCluster(env, commit_mode="delayed")

    def ops(fs):
        fid = yield from fs.create("f")
        with pytest.raises(ValueError):
            yield from fs.write(fid, 0, 0)
        with pytest.raises(ValueError):
            yield from fs.read(fid, 0, -1)
        return fid

    c.run_ops(ops(c.client))


def test_scattered_write_skips_delegation(env):
    c = MiniCluster(env, commit_mode="delayed",
                    delegation_chunk=16 * 1024 * 1024)

    def ops(fs):
        fid = yield from fs.create("aged")
        yield from fs.write(fid, 0, 32 * 1024, scattered=True)
        yield from fs.fsync(fid)
        return fid

    (fid,) = c.run_ops(ops(c.client))
    assert c.client.delegation_pools[0].local_allocs == 0
    meta = c.namespace.get(fid)
    assert meta.committed_bytes() == 32 * 1024


def test_crash_clears_client_state(env):
    c = MiniCluster(env, commit_mode="delayed",
                    delegation_chunk=16 * 1024 * 1024)

    def ops(fs):
        fid = yield from fs.create("f")
        yield from fs.write(fid, 0, 32 * 1024)
        # Crash immediately after the update returns: the commit record
        # is still queued (data write in flight).
        assert fs.pending_commit_count() == 1
        fs.crash()
        return fid

    c.env.process(ops(c.client))
    c.env.run(until=1.0)
    assert c.client.crashed
    assert c.client.pending_commit_count() == 0
    assert len(c.client.commit_queue) == 0
    assert c.client.cache.resident_bytes == 0
