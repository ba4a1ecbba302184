"""Write-generation fencing on the shared array (DESIGN §8)."""

from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.storage.blockdev import BlockDevice
from repro.storage.disk import DiskArray, DiskParameters


def make_array(env, **kw):
    kw.setdefault("num_spindles", 1)
    params = DiskParameters(**kw)
    return DiskArray(env, params, StreamRNG(1).stream("disk"))


def test_fence_bumps_generation_monotonically():
    env = Environment()
    array = make_array(env)
    assert array.fence(3) == 1
    assert array.fence(3) == 2
    assert array.fence(5) == 1
    assert array.fence_generations == {(3, 0): 2, (5, 0): 1}


def test_stale_write_bounces_and_never_lands():
    env = Environment()
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    array.fence(0)  # revoke before the client hears anything
    done = {}

    def proc(env):
        yield dev.submit_write(0, 4096, file_id=1, sync=True)
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    # The command completed (with an error status) but the data did not.
    assert "t" in done
    assert array.fenced_writes == 1
    assert array.stable.total() == 0


def test_queued_write_is_fenced_at_dispatch():
    """A write queued before the fence must still bounce: the fence
    check happens at command dispatch, not at submit."""
    env = Environment()
    array = make_array(env)
    dev = BlockDevice(env, 0, array)

    def proc(env):
        ev = dev.submit_write(0, 4096, file_id=1, sync=True)
        array.fence(0)  # lease reclaimed while the write sat queued
        yield ev

    env.process(proc(env))
    env.run()
    assert array.fenced_writes == 1
    assert array.stable.total() == 0


def test_restamped_write_lands_after_readmission():
    env = Environment()
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    array.fence(0)
    # Re-admission: the client re-establishes state and picks up the
    # current generation (RedbudCluster._readmit_client does this).
    dev.write_generations[0] = array.fence_generations[(0, 0)]

    def proc(env):
        yield dev.submit_write(0, 4096, file_id=1, sync=True)

    env.process(proc(env))
    env.run()
    assert array.fenced_writes == 0
    assert array.stable.total() == 4096


def test_elevator_never_merges_across_generations():
    env = Environment()
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    dev.submit_write(0, 4096, file_id=1)
    dev.write_generations[0] = 1  # readmitted mid-stream
    dev.submit_write(4096, 4096, file_id=1)
    # Adjacent, same op, same file -- but different generations: the
    # elevator must not fold the stale write into the fresh one.
    assert dev.scheduler.stats.merges == 0


def test_elevator_still_merges_within_a_generation():
    env = Environment()
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    dev.submit_write(0, 4096, file_id=1)
    dev.submit_write(4096, 4096, file_id=1)
    assert dev.scheduler.stats.merges == 1
