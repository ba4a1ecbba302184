"""Disk-array service policies: parallel spindles, read preference."""

import pytest

from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.storage.blockdev import BlockDevice
from repro.storage.disk import DiskArray, DiskParameters


def make_array(env, num_spindles=4, write_plug=0.0, **kw):
    params = DiskParameters(
        num_spindles=num_spindles, write_plug=write_plug, **kw
    )
    return DiskArray(env, params, StreamRNG(1).stream("d"))


def test_spindles_service_in_parallel():
    """N requests on N different spindles take ~one service time."""

    def makespan(num_spindles):
        env = Environment()
        array = make_array(env, num_spindles=num_spindles)
        dev = BlockDevice(env, 0, array)
        params = array.params
        row = params.stripe * params.num_spindles

        def proc(env):
            events = []
            for i in range(4):
                # One request per stripe of row 0: distinct spindles
                # when num_spindles >= 4.
                addr = (i % params.num_spindles) * params.stripe
                events.append(
                    dev.submit_write(addr, 256 * 1024, 1, sync=True)
                )
            for ev in events:
                yield ev

        env.process(proc(env))
        env.run()
        return env.now

    assert makespan(4) < 0.5 * makespan(1)


def test_read_preferred_over_queued_writes():
    env = Environment()
    array = make_array(env, num_spindles=1)
    dev = BlockDevice(env, 0, array)
    done = {}

    def writes(env):
        # A pile of sync writes ahead of the read in submission order.
        events = [
            dev.submit_write(i * 1024 * 1024, 256 * 1024, 1, sync=True)
            for i in range(10)
        ]
        for ev in events:
            yield ev
        done["writes"] = env.now

    def read(env):
        yield env.timeout(0.001)  # arrive after the writes queued
        yield dev.submit_read(64 * 1024 * 1024, 4096, 2)
        done["read"] = env.now

    env.process(writes(env))
    env.process(read(env))
    env.run()
    # The read overtook most of the write backlog.
    assert done["read"] < done["writes"]


def test_write_starvation_bound():
    """A steady read stream cannot starve writes forever."""
    env = Environment()
    array = make_array(env, num_spindles=1)
    dev = BlockDevice(env, 0, array)
    done = {}

    def reader(env):
        while env.now < 0.5:
            yield dev.submit_read(
                int(env.now * 1e9) % (1 << 30), 4096, 2
            )

    def writer(env):
        yield env.timeout(0.001)
        yield dev.submit_write(1 << 30, 4096, 1, sync=True)
        done["write"] = env.now

    env.process(reader(env))
    env.process(writer(env))
    env.run(until=0.5)
    assert "write" in done
    assert done["write"] < 0.1


def test_plugged_write_dispatches_at_expiry_without_new_traffic():
    env = Environment()
    array = make_array(env, num_spindles=1, write_plug=0.02)
    dev = BlockDevice(env, 0, array)
    done = {}

    def proc(env):
        ev = dev.submit_write(0, 4096, 1)  # async: plugged
        yield ev
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    assert done["t"] == pytest.approx(0.02, abs=0.005)


def test_sync_write_skips_plug():
    env = Environment()
    array = make_array(env, num_spindles=1, write_plug=0.02)
    dev = BlockDevice(env, 0, array)
    done = {}

    def proc(env):
        yield dev.submit_write(0, 4096, 1, sync=True)
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    assert done["t"] < 0.005


def test_read_interrupts_plug_wait():
    """A read arriving while the spindle waits out a plug is served at
    once (the any_of wakeup)."""
    env = Environment()
    array = make_array(env, num_spindles=1, write_plug=0.05)
    dev = BlockDevice(env, 0, array)
    done = {}

    def writer(env):
        ev = dev.submit_write(0, 4096, 1)  # plugged for 50ms
        yield ev
        done["write"] = env.now

    def reader(env):
        yield env.timeout(0.005)
        yield dev.submit_read(1 << 20, 4096, 2)
        done["read"] = env.now

    env.process(writer(env))
    env.process(reader(env))
    env.run()
    assert done["read"] < 0.03  # not delayed to the plug expiry
    assert done["write"] >= 0.05


def test_stable_tracking_only_after_service():
    env = Environment()
    array = make_array(env, num_spindles=1)
    dev = BlockDevice(env, 0, array)

    def proc(env):
        ev = dev.submit_write(0, 8192, 1, sync=True)
        assert not array.stable.contains(0, 8192)
        yield ev
        assert array.stable.contains(0, 8192)

    p = env.process(proc(env))
    env.run(until=p)


def test_reads_never_marked_stable():
    env = Environment()
    array = make_array(env, num_spindles=1)
    dev = BlockDevice(env, 0, array)

    def proc(env):
        yield dev.submit_read(0, 4096, 1)

    p = env.process(proc(env))
    env.run(until=p)
    assert not array.stable.overlaps(0, 4096)
