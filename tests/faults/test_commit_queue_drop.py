"""Regression: ``CommitQueue.drop_all`` must release room waiters.

The crash path (``RedbudClient.die`` and MDS restarts that discard the
volatile queue) used to empty the queue without waking writers parked in
:meth:`CommitQueue.wait_for_room`.  Nothing else re-checks room until
the next checkout -- which can never happen on an empty queue -- so the
parked writers stalled forever and the post-crash workload wedged.
"""

import pytest

from repro.core.commit_queue import CommitQueue
from repro.mds.extent import Extent
from repro.core.kernel.events import Event
from repro.sim import Environment

pytestmark = pytest.mark.faults


def ext(fo, ln=4096):
    return Extent(file_offset=fo, length=ln, device_id=0, volume_offset=fo)


def fill(env, q, n, start_fid=1):
    """Insert ``n`` never-stable records (pending data events)."""
    for i in range(n):
        q.insert(start_fid + i, [ext(0)], [Event(env)])


def test_drop_all_wakes_parked_writers():
    env = Environment()
    q = CommitQueue(env, capacity=2)
    fill(env, q, 2)
    assert not q.has_room()

    resumed = []

    def writer(env, fid):
        yield q.wait_for_room()
        resumed.append((fid, env.now))
        q.insert(fid, [ext(0)], [Event(env)])

    env.process(writer(env, 10))
    env.process(writer(env, 11))
    env.run(until=1.0)
    assert resumed == []  # both parked: the queue is full and frozen

    # Crash: volatile queue contents are lost, room opens up.
    lost = q.drop_all()
    assert len(lost) == 2
    env.run()

    # Both writers resumed (FIFO) and their retries are queued again.
    assert [fid for fid, _ in resumed] == [10, 11]
    assert len(q) == 2


def test_backpressure_still_works_after_drop_all():
    env = Environment()
    q = CommitQueue(env, capacity=1)
    fill(env, q, 1)

    order = []

    def writer(env, fid):
        if not q.has_room():  # the protocol.py caller pattern
            yield q.wait_for_room()
        order.append(fid)
        q.insert(fid, [ext(0)], [Event(env)])

    for fid in (20, 21, 22):
        env.process(writer(env, fid))
    env.run(until=1.0)
    assert order == []

    q.drop_all()
    env.run()
    # The wake is level-triggered against the post-drop snapshot (an
    # empty queue), so every parked writer resumes in FIFO order; the
    # protocol tolerates the one-in-flight-insert overshoot.
    assert order == [20, 21, 22]
    assert len(q._waiting_room) == 0

    # The waiting room is not corrupted: a fresh writer against the
    # (now over-full) queue parks again and checkout releases it.
    def late_writer(env):
        if not q.has_room():
            yield q.wait_for_room()
        order.append(99)

    env.process(late_writer(env))
    env.run()
    assert order == [20, 21, 22]  # still parked: no room, no checkout

    for rec in q.pending_records():
        for ev in list(rec.data_events):
            if not ev.triggered:
                ev.succeed()
    env.run()
    q.checkout_stable(limit=3)
    env.run()
    assert order == [20, 21, 22, 99]
