"""Tests for the disk model and shared array service loop."""

import pytest

from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.storage.blockdev import BlockDevice
from repro.storage.blktrace import BlkTrace
from repro.storage.disk import DiskArray, DiskParameters


@pytest.fixture
def env():
    return Environment()


def make_array(env, trace=None, **kw):
    kw.setdefault("num_spindles", 1)  # single head: deterministic seeks
    params = DiskParameters(**kw)
    return DiskArray(env, params, StreamRNG(1).stream("disk"), trace=trace)


def test_seek_time_monotone_in_distance():
    p = DiskParameters()
    assert p.seek_time(0) == 0.0
    d1 = p.seek_time(1024)
    d2 = p.seek_time(1024 * 1024)
    d3 = p.seek_time(p.volume_size)
    assert 0 < d1 < d2 < d3
    assert d3 <= p.seek_base + p.seek_max_extra + 1e-12


def test_transfer_time_linear():
    p = DiskParameters(transfer_rate=100e6)
    assert p.transfer_time(100e6) == pytest.approx(1.0)
    assert p.transfer_time(50e6) == pytest.approx(0.5)


def test_single_write_completes(env):
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    done = {}

    def proc(env):
        ev = dev.submit_write(0, 4096, file_id=1)
        yield ev
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    assert done["t"] > 0
    assert array.ops_served == 1
    assert array.bytes_served == 4096


def test_sequential_writes_faster_than_scattered(env):
    """Two runs: same byte volume, sequential vs far-scattered addresses."""

    def run(addresses):
        env = Environment()
        array = make_array(env)
        dev = BlockDevice(env, 0, array)

        def proc(env):
            for addr in addresses:
                # sync: the "application" blocks on each write, so the
                # timing reflects pure service order, not plugging.
                yield dev.submit_write(addr, 4096, file_id=1, sync=True)

        env.process(proc(env))
        env.run()
        return env.now

    seq = run([i * 4096 for i in range(50)])
    gb = 1 << 30
    scattered = run([(i * 977) % 1000 * gb // 1000 for i in range(50)])
    assert seq < scattered / 3


def test_merged_requests_serviced_as_one(env):
    trace = BlkTrace()
    array = make_array(env, trace=trace)
    dev = BlockDevice(env, 0, array)
    completions = []

    def burst(env):
        # Submit 8 contiguous pages in one instant: they merge while the
        # array is busy with the first dispatch.
        events = [
            dev.submit_write(i * 4096, 4096, file_id=1) for i in range(8)
        ]
        for ev in events:
            yield ev
        completions.append(env.now)

    env.process(burst(env))
    env.run()
    assert completions
    # First dispatch may go out alone before merging; the rest coalesce.
    assert array.ops_served <= 3
    assert sum(r.queued for r in trace.records) == 8


def test_round_robin_across_clients(env):
    array = make_array(env)
    devs = [BlockDevice(env, cid, array) for cid in range(3)]
    served_clients = []
    trace_orig = array.trace
    assert trace_orig is None

    def proc(env, dev, base):
        events = [
            dev.submit_write(base + i * 4096, 4096, file_id=dev.client_id)
            for i in range(2)
        ]
        for ev in events:
            yield ev

    gb = 1 << 30
    for i, dev in enumerate(devs):
        env.process(proc(env, dev, i * gb))
    env.run()
    assert array.ops_served >= 3  # at least one dispatch per client


def test_array_idles_and_wakes(env):
    array = make_array(env)
    dev = BlockDevice(env, 0, array)
    log = []

    def late_writer(env):
        yield env.timeout(5.0)
        yield dev.submit_write(0, 4096, file_id=1)
        log.append(env.now)

    env.process(late_writer(env))
    env.run(until=10.0)
    assert log and log[0] > 5.0
    assert array.ops_served == 1


def test_trace_records_seek_distances(env):
    trace = BlkTrace()
    array = make_array(env, trace=trace)
    dev = BlockDevice(env, 0, array)

    def proc(env):
        yield dev.submit_write(0, 4096, file_id=1, sync=True)
        yield dev.submit_write(4096, 4096, file_id=1, sync=True)  # sequential
        yield dev.submit_write(1 << 30, 4096, file_id=1, sync=True)  # seek

    env.process(proc(env))
    env.run()
    assert len(trace) == 3
    assert trace.records[0].seek_distance == 0
    assert trace.records[1].seek_distance == 0
    assert trace.records[2].seek_distance == (1 << 30) - 8192


def test_utilization_between_zero_and_one(env):
    array = make_array(env)
    dev = BlockDevice(env, 0, array)

    def proc(env):
        for i in range(5):
            yield dev.submit_write(i * 4096, 4096, file_id=1)
            yield env.timeout(0.01)

    env.process(proc(env))
    env.run()
    assert 0.0 < array.utilization <= 1.0


def test_deterministic_service_times():
    def run():
        env = Environment()
        array = make_array(env)
        dev = BlockDevice(env, 0, array)

        def proc(env):
            for i in range(10):
                yield dev.submit_write((i * 7919) % 100 * 4096, 4096, 1)

        env.process(proc(env))
        env.run()
        return env.now

    assert run() == run()
