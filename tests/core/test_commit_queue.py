"""Tests for the commit queue: dedup, stability gating, backpressure."""

import pytest

from repro.core.commit_queue import CommitQueue
from repro.mds.extent import Extent
from repro.core.kernel.events import Event
from repro.sim import Environment


def ext(fo, ln=4096, vo=0):
    return Extent(file_offset=fo, length=ln, device_id=0, volume_offset=vo)


@pytest.fixture
def env():
    return Environment()


def processed_event(env):
    ev = Event(env)
    ev.succeed()
    env.run()  # process it
    return ev


def test_insert_creates_record(env):
    q = CommitQueue(env)
    rec = q.insert(1, [ext(0)], [Event(env)])
    assert len(q) == 1
    assert q.record_for(1) is rec
    assert not rec.data_stable


def test_per_file_dedup_absorbs(env):
    q = CommitQueue(env)
    r1 = q.insert(1, [ext(0)], [Event(env)])
    r2 = q.insert(1, [ext(4096, vo=4096)], [Event(env)])
    assert r1 is r2
    assert len(q) == 1
    assert len(r1.extents) == 2
    assert q.dedup_hits == 1


def test_different_files_not_deduped(env):
    q = CommitQueue(env)
    q.insert(1, [ext(0)], [Event(env)])
    q.insert(2, [ext(0)], [Event(env)])
    assert len(q) == 2
    assert q.dedup_hits == 0


def test_checkout_requires_data_stable(env):
    q = CommitQueue(env)
    pending = Event(env)
    q.insert(1, [ext(0)], [pending])
    assert q.checkout_stable() == []
    pending.succeed()
    env.run()
    batch = q.checkout_stable()
    assert len(batch) == 1
    assert batch[0].checked_out
    assert len(q) == 0


def test_checkout_fifo_order_and_limit(env):
    q = CommitQueue(env)
    for fid in [1, 2, 3]:
        q.insert(fid, [ext(0)], [processed_event(env)])
    batch = q.checkout_stable(limit=2)
    assert [r.file_id for r in batch] == [1, 2]
    assert len(q) == 1


def test_checkout_skips_unstable(env):
    q = CommitQueue(env)
    q.insert(1, [ext(0)], [Event(env)])  # unstable
    q.insert(2, [ext(0)], [processed_event(env)])
    batch = q.checkout_stable(limit=5)
    assert [r.file_id for r in batch] == [2]
    assert len(q) == 1


def test_insert_after_checkout_makes_new_record(env):
    q = CommitQueue(env)
    r1 = q.insert(1, [ext(0)], [processed_event(env)])
    q.checkout_stable()
    r2 = q.insert(1, [ext(4096)], [processed_event(env)])
    assert r1 is not r2
    assert len(q) == 1


def test_wait_for_stable_fires_when_data_completes(env):
    q = CommitQueue(env)
    pending = Event(env)
    fired = []

    def waiter(env):
        yield q.wait_for_stable()
        fired.append(env.now)

    def writer(env):
        q.insert(1, [ext(0)], [pending])
        yield env.timeout(5)
        pending.succeed()

    env.process(waiter(env))
    env.process(writer(env))
    env.run()
    assert fired == [5.0]


def test_wait_for_stable_immediate_when_available(env):
    q = CommitQueue(env)
    q.insert(1, [ext(0)], [processed_event(env)])
    ev = q.wait_for_stable()
    assert ev.triggered


def test_backpressure(env):
    q = CommitQueue(env, capacity=2)
    q.insert(1, [ext(0)], [processed_event(env)])
    q.insert(2, [ext(0)], [processed_event(env)])
    assert not q.has_room()
    times = []

    def writer(env):
        yield q.wait_for_room()
        times.append(env.now)

    def drainer(env):
        yield env.timeout(3)
        q.checkout_stable()

    env.process(writer(env))
    env.process(drainer(env))
    env.run()
    assert times == [3.0]


def test_absorb_into_checked_out_record_rejected(env):
    q = CommitQueue(env)
    rec = q.insert(1, [ext(0)], [processed_event(env)])
    q.checkout_stable()
    with pytest.raises(RuntimeError):
        rec.absorb([ext(4096)], [])


def test_drop_all_returns_lost_records(env):
    q = CommitQueue(env)
    q.insert(1, [ext(0)], [Event(env)])
    q.insert(2, [ext(0)], [Event(env)])
    lost = q.drop_all()
    assert len(lost) == 2
    assert len(q) == 0
    assert q.record_for(1) is None


def test_length_change_listener(env):
    q = CommitQueue(env)
    lengths = []
    q.on_length_change = lengths.append
    q.insert(1, [ext(0)], [processed_event(env)])
    q.insert(2, [ext(0)], [processed_event(env)])
    q.checkout_stable(limit=2)
    assert lengths == [1, 2, 0]


def test_peak_length_tracked(env):
    q = CommitQueue(env)
    for fid in range(5):
        q.insert(fid, [ext(0)], [processed_event(env)])
    q.checkout_stable(limit=5)
    assert q.peak_length == 5


def test_unordered_record_is_always_stable(env):
    q = CommitQueue(env)
    q.insert(1, [ext(0)], [Event(env)], require_data_stable=False)
    batch = q.checkout_stable()
    assert len(batch) == 1  # checked out despite pending data


def test_validation(env):
    with pytest.raises(ValueError):
        CommitQueue(env, capacity=0)
    q = CommitQueue(env)
    with pytest.raises(ValueError):
        q.checkout_stable(limit=0)


def test_dedup_merge_registers_stability_callback_once(env):
    """Regression: repeat merges used to stack duplicate wake callbacks.

    A long-lived file whose writes dedup into one resident record
    presents the same data event on every merge; each presentation
    appended another wake callback, so one write completion fired a
    wakeup per *merge* instead of per *event*.
    """
    q = CommitQueue(env)
    ev = Event(env)
    q.insert(1, [ext(0)], [ev])
    assert ev.callbacks.count(q._on_data_stable) == 1

    for k in range(1, 6):
        q.insert(1, [ext(4096 * k, vo=4096 * k)], [ev])
    assert q.dedup_hits == 5
    assert ev.callbacks.count(q._on_data_stable) == 1

    before = q.wakeups
    ev.succeed()
    env.run()
    assert q.wakeups == before + 1
    assert ev not in q._stability_watch


def test_shared_data_event_across_records_wakes_once(env):
    """One event backing several records still yields a single wakeup."""
    q = CommitQueue(env)
    ev = Event(env)
    q.insert(1, [ext(0)], [ev])
    q.insert(2, [ext(0)], [ev])
    assert ev.callbacks.count(q._on_data_stable) == 1

    waiter = q.wait_for_stable()
    before = q.wakeups
    ev.succeed()
    env.run()
    assert q.wakeups == before + 1
    assert waiter.triggered
    assert len(q.checkout_stable(limit=2)) == 2
