"""Tests for the scheduler policies: plugging, deadlines, read preference,
sync-request semantics and per-spindle dispatch."""

import pytest

from repro.core.kernel.events import Event
from repro.sim import Environment
from repro.storage.scheduler import READ, BlockRequest, ElevatorScheduler


def make_request(env, start, length=4096, op="write", sync=False, file_id=0):
    return BlockRequest(
        op=op,
        start=start,
        length=length,
        client_id=0,
        file_id=file_id,
        submit_time=env.now,
        completion=Event(env),
        sync=sync,
    )


def one_spindle(_start):
    return 0


def make_sched(env, spindle_of=one_spindle, **kw):
    """A scheduler with the spindle map an array would install."""
    sched = ElevatorScheduler(env, 0, **kw)
    sched.set_spindle_map(spindle_of)
    return sched


@pytest.fixture
def env():
    return Environment()


def test_plug_holds_young_async_writes(env):
    sched = make_sched(env)
    sched.submit(make_request(env, 0))
    got = sched.pop_next_for_spindle(0, 0, write_plug=0.01)
    assert got is None  # plugged

    def later(env):
        yield env.timeout(0.02)

    env.process(later(env))
    env.run()
    got = sched.pop_next_for_spindle(0, 0, write_plug=0.01)
    assert got is not None  # plug expired


def test_sync_writes_never_plugged(env):
    sched = make_sched(env)
    sched.submit(make_request(env, 0, sync=True))
    got = sched.pop_next_for_spindle(0, 0, write_plug=0.01)
    assert got is not None


def test_reads_never_plugged(env):
    sched = make_sched(env)
    sched.submit(make_request(env, 0, op=READ, sync=True))
    got = sched.pop_next_for_spindle(
        0, 0, op=READ, write_plug=0.01
    )
    assert got is not None


def test_op_filter(env):
    sched = make_sched(env)
    sched.submit(make_request(env, 0, op="write", sync=True))
    sched.submit(make_request(env, 8192, op=READ))
    got = sched.pop_next_for_spindle(0, 0, op=READ)
    assert got.op == READ
    got = sched.pop_next_for_spindle(0, 0, op="write")
    assert got.op == "write"


def test_spindle_filter(env):
    sched = make_sched(env, lambda start: start // (1 << 20))
    sched.submit(make_request(env, 0, sync=True))
    sched.submit(make_request(env, 1 << 20, sync=True))
    got = sched.pop_next_for_spindle(0, 1)
    assert got.start == 1 << 20
    assert sched.pop_next_for_spindle(0, 1) is None
    assert sched.has_request_for_spindle(0)
    assert not sched.has_request_for_spindle(1)


def test_has_request_by_class(env):
    sched = make_sched(env)
    assert not sched.has_request_for_spindle(0, READ)
    sched.submit(make_request(env, 0))
    assert sched.has_request_for_spindle(0, "write")
    assert not sched.has_request_for_spindle(0, READ)
    sched.submit(make_request(env, 8192, op=READ))
    assert sched.has_request_for_spindle(0, READ)
    assert sched.pop_next_for_spindle(0, 0, op=READ).op == READ
    assert not sched.has_request_for_spindle(0, READ)
    sched.drop_all()
    assert not sched.has_request_for_spindle(0)


def test_spindle_methods_need_the_map(env):
    sched = ElevatorScheduler(env, 0)
    sched.submit(make_request(env, 0, sync=True))
    with pytest.raises(RuntimeError):
        sched.pop_next_for_spindle(0, 0)
    # Installing the map indexes what is already queued.
    sched.set_spindle_map(one_spindle)
    assert sched.pop_next_for_spindle(0, 0) is not None


def test_expired_request_served_first(env):
    sched = make_sched(env, read_deadline=0.01)
    old = make_request(env, 1 << 30, op=READ)  # far away, will expire
    sched.submit(old)

    def later(env):
        yield env.timeout(0.05)
        sched.submit(make_request(env, 0, op=READ))  # near the head

    env.process(later(env))
    env.run()
    got = sched.pop_next_for_spindle(0, 0)
    assert got is old  # expired beats C-LOOK order


def test_oldest_plugged_submit(env):
    sched = make_sched(env)
    assert sched.oldest_plugged_submit(0) is None
    sched.submit(make_request(env, 0))

    def later(env):
        yield env.timeout(0.02)
        sched.submit(make_request(env, 1 << 20))

    env.process(later(env))
    env.run()
    assert sched.oldest_plugged_submit(0) == 0.0
    # Sync requests do not count (already dispatchable).
    sched2 = make_sched(env)
    sched2.submit(make_request(env, 0, sync=True))
    assert sched2.oldest_plugged_submit(0) is None


def test_expedite_file_unplugs(env):
    sched = make_sched(env)
    notified = []
    sched.on_submit = notified.append
    sched.submit(make_request(env, 0, file_id=7))
    sched.submit(make_request(env, 1 << 20, file_id=8))
    sched.expedite_file(7)
    got = sched.pop_next_for_spindle(0, 0, write_plug=1.0)
    assert got is not None and got.file_id == 7
    # File 8 remains plugged.
    assert (
        sched.pop_next_for_spindle(0, 0, write_plug=1.0) is None
    )
    assert len(notified) == 3  # two submits + expedite
    assert [set(touched) for touched in notified] == [{0}, {0}, {0}]
