"""Tests for online lease-based orphan garbage collection."""

import pytest

from repro.mds.allocation import SpaceManager
from repro.mds.lease_gc import LeaseGarbageCollector
from repro.sim import Environment


def make_gc(env, lease=1.0, scan=0.25, volume=1 << 20):
    space = SpaceManager(volume_size=volume, num_groups=2, cursor_align=0)
    gc = LeaseGarbageCollector(
        env, space, lease_duration=lease, scan_interval=scan
    )
    return gc, space


def test_silent_client_reclaimed():
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(4096, client_id=1)
    gc.renew(1)
    env.run(until=2.0)  # silence > lease
    assert space.uncommitted_bytes(1) == 0
    assert gc.bytes_reclaimed_total == 4096
    assert len(gc.events) == 1
    assert gc.events[0].client_id == 1


def test_active_client_never_reclaimed():
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(4096, client_id=1)
    gc.renew(1)

    def heartbeat(env):
        while env.now < 5.0:
            yield env.timeout(0.5)
            gc.renew(1)

    env.process(heartbeat(env))
    env.run(until=5.0)
    assert space.uncommitted_bytes(1) == 4096
    assert gc.bytes_reclaimed_total == 0


def test_committed_space_survives_expiry():
    env = Environment()
    gc, space = make_gc(env)
    off = space.alloc(4096, client_id=1)
    space.note_committed(off, 4096)
    gc.renew(1)
    env.run(until=3.0)
    # Nothing uncommitted: expiry reclaims nothing, space stays allocated.
    assert gc.bytes_reclaimed_total == 0
    assert space.free_bytes == (1 << 20) - 4096


def test_mixed_clients_only_silent_one_collected():
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(1000, client_id=1)
    space.alloc(2000, client_id=2)
    gc.renew(1)
    gc.renew(2)

    def keep_two_alive(env):
        while env.now < 3.0:
            yield env.timeout(0.4)
            gc.renew(2)

    env.process(keep_two_alive(env))
    env.run(until=3.0)
    assert space.uncommitted_bytes(1) == 0
    assert space.uncommitted_bytes(2) == 2000


def test_unknown_clients_ignored():
    env = Environment()
    gc, space = make_gc(env)
    env.run(until=3.0)  # no leases at all: nothing to do
    assert gc.events == []


def test_validation():
    env = Environment()
    space = SpaceManager(volume_size=1 << 20, num_groups=1)
    with pytest.raises(ValueError):
        LeaseGarbageCollector(env, space, lease_duration=0)
    with pytest.raises(ValueError):
        LeaseGarbageCollector(env, space, scan_interval=-1)


def test_integrated_with_mds_single_client_crash():
    """Crash ONE client of a running cluster: its delegated space is
    reclaimed online while the others keep working."""
    from repro.fs import ClusterConfig, RedbudCluster
    from repro.mds.server import MdsParameters
    from repro.workloads import XcdnWorkload

    config = ClusterConfig.space_delegation_config(
        num_clients=3,
        mds=MdsParameters(lease_duration=0.8, gc_scan_interval=0.2),
    )
    cluster = RedbudCluster(config, seed=5)
    wl = XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=5, threads_per_client=2
    )
    cluster.run_workload(wl, duration=1.0, warmup=0.1)
    victim = cluster.clients[0]
    mds = cluster.metadata.shard(0)
    had_uncommitted = mds.space.uncommitted_bytes(0)
    assert had_uncommitted > 0  # it holds a delegated chunk remainder
    victim.crash()
    # Keep the others (and their MDS traffic) going past the lease.
    cluster.env.run(until=cluster.env.now + 3.0)
    assert mds.space.uncommitted_bytes(0) == 0
    assert mds.gc is not None
    assert any(e.client_id == 0 for e in mds.gc.events)
    mds.space.check_invariants()


def test_paused_collector_reclaims_nothing():
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(4096, client_id=1)
    gc.renew(1)
    gc.pause()
    env.run(until=3.0)  # well past expiry, but the MDS is "down"
    assert gc.bytes_reclaimed_total == 0
    assert space.uncommitted_bytes(1) == 4096


def test_resume_grants_a_full_lease_grace():
    # NFSv4-style grace: clients could not renew while the server was
    # down, so nobody may be declared dead until a full lease duration
    # has passed after the restart.
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(4096, client_id=1)
    gc.renew(1)
    gc.pause()
    env.run(until=3.0)
    gc.resume()
    env.run(until=3.5)  # within the post-restart grace
    assert gc.bytes_reclaimed_total == 0

    def heartbeat(env):
        while env.now < 6.0:
            yield env.timeout(0.4)
            gc.renew(1)

    env.process(heartbeat(env))
    env.run(until=6.0)
    assert gc.bytes_reclaimed_total == 0  # live client survived restart


def test_genuinely_dead_client_expires_again_after_grace():
    env = Environment()
    gc, space = make_gc(env)
    space.alloc(4096, client_id=1)
    gc.renew(1)
    gc.pause()
    env.run(until=3.0)
    gc.resume()
    env.run(until=5.0)  # grace over, still silent -> reclaimed
    assert gc.bytes_reclaimed_total == 4096
    assert space.uncommitted_bytes(1) == 0


def test_readmit_fires_once_on_next_renewal_after_reclaim():
    env = Environment()
    gc, space = make_gc(env)
    reclaims, readmits = [], []
    gc.on_reclaim = reclaims.append
    gc.on_readmit = readmits.append
    space.alloc(4096, client_id=1)
    gc.renew(1)
    env.run(until=2.0)  # silence > lease: reclaimed and fenced
    assert reclaims == [1]
    assert readmits == []  # not heard from yet
    gc.renew(1)  # first RPC after the fence re-establishes state
    assert readmits == [1]
    gc.renew(1)  # subsequent traffic does not re-fire
    assert readmits == [1]


def test_readmit_never_fires_without_a_reclaim():
    env = Environment()
    gc, space = make_gc(env)
    readmits = []
    gc.on_reclaim = lambda c: None
    gc.on_readmit = readmits.append
    space.alloc(4096, client_id=1)
    for _ in range(5):
        gc.renew(1)
    assert readmits == []


def test_refenced_client_readmitted_again():
    env = Environment()
    gc, space = make_gc(env)
    readmits = []
    gc.on_reclaim = lambda c: None
    gc.on_readmit = readmits.append
    space.alloc(4096, client_id=1)
    gc.renew(1)
    env.run(until=2.0)
    gc.renew(1)  # readmit #1
    space.alloc(4096, client_id=1)
    env.run(until=4.0)  # silent again -> second reclaim
    gc.renew(1)  # readmit #2
    assert readmits == [1, 1]
