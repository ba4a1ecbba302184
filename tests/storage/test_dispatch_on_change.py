"""Dispatch-on-change against the poll-everything array it replaced.

:class:`PollingArray` keeps the old idle path alive as the reference:
every wake-up of every spindle re-polls every client queue for every
request class and rescans every queue's plugs.  The production array
skips all of that unless something changed for the spindle; the two must
serve the same requests at the same instants *and* schedule the same
events, for any interleaving of submissions, merges, expedites, drops,
fences and late attachments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.core.kernel.events import Event
from repro.storage.blktrace import BlkTrace
from repro.storage.blockdev import BlockDevice
from repro.storage.disk import DiskArray, DiskParameters
from repro.storage.scheduler import (
    READ,
    WRITE,
    BlockRequest,
    ElevatorScheduler,
)


class _Always:
    """A per-spindle flag list that reads True whatever was stored."""

    def __getitem__(self, spindle):
        return True

    def __setitem__(self, spindle, value):
        pass


class PollingArray(DiskArray):
    """The array before dispatch-on-change: no flag, no ready index, and
    no count of armed wake-ups (every submission walks all of them)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # The spindle loops read this when they first run, after here.
        self._changed = _Always()

    def _notify(self, spindles):
        for wakeup in self._wakeups:
            if not wakeup.triggered:
                wakeup.succeed()

    def _pop_rr(self, spindle, op):
        schedulers = self._schedulers
        n = len(schedulers)
        base = self._rr_index[spindle]
        for offset in range(n):
            idx = (base + offset) % n
            request = schedulers[idx].pop_next_for_spindle(
                self._heads[spindle],
                spindle,
                op=op,
                write_plug=self.params.write_plug,
            )
            if request is not None:
                self._rr_index[spindle] = (idx + 1) % n
                return request
        return None

    def _next_request(self, spindle):
        if self._read_streak[spindle] >= self.write_starvation_limit:
            request = self._pop_rr(spindle, WRITE)
            if request is not None:
                self._read_streak[spindle] = 0
                return request
        request = self._pop_rr(spindle, READ)
        if request is not None:
            self._read_streak[spindle] += 1
            return request
        request = self._pop_rr(spindle, None)
        if request is not None:
            self._read_streak[spindle] = 0
        return request


PARAMS = DiskParameters(
    volume_size=1 << 30, num_spindles=4, stripe=64 * 1024, write_plug=0.012
)
UNIT = 16 * 1024  # four units per stripe: neighbours merge, every
#                   fourth pair merges across a stripe boundary
CLIENTS = 3

_STEP = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.0005, 0.004, 0.013, 0.06]),
    st.sampled_from(
        ["read", "write", "write", "write", "sync_write", "expedite_file",
         "expedite_all", "drop_all", "fence", "attach"]
    ),  # fmt: skip
    st.sampled_from([0, 0, 0, 1, 2]),
    # Unit address: 12 stripes, 3 rows; half of them either side of a
    # stripe boundary, so that merges (and merges across) are common.
    st.one_of(st.sampled_from([3, 4, 7, 8]), st.integers(0, 47)),
    st.integers(1, 2),  # units long
    st.integers(0, 2),  # file
)


def _play(array_cls, steps):
    env = Environment()
    trace = BlkTrace()
    array = array_cls(env, PARAMS, StreamRNG(3).stream("disk"), trace=trace)
    devices = [BlockDevice(env, c, array) for c in range(CLIENTS)]
    completed = []

    def submit(dev, kind, unit, units, file_id):
        start, length = unit * UNIT, units * UNIT
        if kind == "read":
            event = dev.submit_read(start, length, file_id)
        else:
            event = dev.submit_write(
                start, length, file_id, sync=kind == "sync_write"
            )
        event.callbacks.append(lambda _e: completed.append(env.now))

    def driver(env):
        for delay, kind, client, unit, units, file_id in steps:
            if delay:
                yield env.timeout(delay)
            dev = devices[client]
            if kind == "expedite_file":
                dev.expedite_file(file_id)
            elif kind == "expedite_all":
                dev.scheduler.expedite_all_writes()
            elif kind == "drop_all":
                dev.scheduler.drop_all()
            elif kind == "fence":
                array.fence(dev.client_id)
            elif kind == "attach":
                # A queue that arrives late, and not empty.
                late = ElevatorScheduler(env, client)
                late.submit(
                    BlockRequest(
                        op=WRITE,
                        start=unit * UNIT,
                        length=units * UNIT,
                        client_id=client,
                        file_id=file_id,
                        submit_time=env.now,
                        completion=Event(env),
                    )
                )
                array.attach(late)
            else:
                submit(dev, kind, unit, units, file_id)

    env.process(driver(env))
    env.run()
    return trace.to_rows(), env.scheduled_events, completed, env.now


@settings(max_examples=300, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=60))
def test_same_trace_and_same_events_as_polling(steps):
    assert _play(DiskArray, steps) == _play(PollingArray, steps)


# One hand-written schedule per way a spindle's requests can change (or
# must be seen not to have): (delay, action, client, unit, units, file).
SCHEDULES = {
    "same instant, two spindles, submitted in reverse spindle order": [
        (0.0, "sync_write", 0, 9, 1, 0),  # stripe 2
        (0.0, "read", 1, 1, 1, 1),  # stripe 0
    ],
    "front merge across a stripe boundary": [
        (0.0, "write", 2, 4, 1, 2),  # plugged, stripe 1
        (0.004, "write", 2, 3, 1, 2),  # the pair is now stripe 0's
        (0.004, "write", 1, 20, 1, 2),  # wakes everyone, stripe 1 too
        (0.02, "write", 2, 2, 1, 2),
    ],
    "back merge into a plugged write": [
        (0.0, "write", 0, 4, 1, 0),
        (0.004, "write", 0, 5, 2, 0),
        (0.004, "sync_write", 0, 7, 1, 0),  # merges in, stays plugged
    ],
    "expedite_file": [
        (0.0, "write", 0, 4, 1, 1),
        (0.0, "write", 0, 9, 1, 0),
        (0.004, "expedite_file", 0, 0, 1, 1),
    ],
    "expedite_all_writes": [
        (0.0, "write", 0, 4, 1, 1),
        (0.0, "write", 1, 9, 1, 0),
        (0.004, "expedite_all", 0, 0, 1, 0),
    ],
    "drop_all, then somebody else's wake-up": [
        (0.0, "write", 0, 4, 1, 0),
        (0.004, "drop_all", 0, 0, 1, 0),
        (0.001, "write", 1, 9, 1, 0),
    ],
    "late attach of a non-empty queue": [
        (0.0, "write", 0, 4, 1, 0),
        (0.004, "attach", 1, 9, 1, 0),  # stripe 2, idle until now
        (0.001, "read", 2, 1, 1, 0),
    ],
    "fenced write": [
        (0.0, "write", 0, 4, 1, 0),
        (0.0, "sync_write", 0, 12, 1, 0),
        (0.0, "fence", 0, 0, 1, 0),
        (0.02, "sync_write", 1, 5, 1, 0),
    ],
    "plug runs out with nothing else going on": [
        (0.0, "write", 0, 4, 1, 0),
        (0.011, "write", 1, 4, 1, 0),
        (0.0009, "read", 2, 40, 1, 0),
    ],
}


@pytest.mark.parametrize("name", SCHEDULES)
def test_schedule_matches_polling(name):
    played = _play(DiskArray, SCHEDULES[name])
    assert played == _play(PollingArray, SCHEDULES[name])
    assert played[0], "the schedule dispatched nothing"


def _one_write_per_spindle(array):
    """A start address on each spindle, in spindle order."""
    starts = {}
    address = 0
    while len(starts) < array.params.num_spindles:
        starts.setdefault(array.params.spindle_of(address), address)
        address += array.params.stripe
    return [starts[spindle] for spindle in sorted(starts)]


def test_notify_with_every_spindle_busy_schedules_nothing():
    env = Environment()
    array = DiskArray(env, PARAMS, StreamRNG(3).stream("disk"))
    device = BlockDevice(env, 0, array)
    env.run()  # every spindle asleep on an armed wake-up
    assert array._armed == PARAMS.num_spindles
    before = env.scheduled_events
    array._notify(range(PARAMS.num_spindles))
    assert env.scheduled_events - before == PARAMS.num_spindles
    assert array._armed == 0
    env.run()

    for start in _one_write_per_spindle(array):
        device.submit_write(start, UNIT, file_id=1, sync=True)
    while len(array.in_flight) < PARAMS.num_spindles:
        env.step()
    assert array._armed == sum(
        not wakeup.triggered for wakeup in array._wakeups
    ) == 0
    before = env.scheduled_events
    array._notify(range(PARAMS.num_spindles))
    assert env.scheduled_events == before
    env.run()
    assert array._armed == PARAMS.num_spindles
    assert array.stable.total() == PARAMS.num_spindles * UNIT
