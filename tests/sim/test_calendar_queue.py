"""Calendar-queue scheduler: equivalence with the reference heap.

The calendar queue must be observationally identical to the binary
heap kept in ``tests/sim/reference_heap.py`` -- same dispatch order
under ties, far-future outliers (overflow heap) and cancellations --
plus the engine-level guarantees the heap path historically got wrong:
``peek()`` on an empty calendar, bounded growth under cancel/reschedule
churn, and Timeout recycling.
"""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Environment, SimulationError

from tests.sim.reference_heap import HeapScheduler, heap_calendar

CALENDARS = {"calendar": contextlib.nullcontext, "heap": heap_calendar}


@pytest.fixture(params=sorted(CALENDARS))
def env(request):
    """A fresh environment on each calendar implementation in turn."""
    with CALENDARS[request.param]():
        env = Environment()
    expected = HeapScheduler if request.param == "heap" else CalendarQueue
    assert type(env._queue) is expected
    return env


def _run_trace(scheduler, items, outliers=()):
    """Fire the given (delay, cancel?) schedule; return the dispatch log."""
    with CALENDARS[scheduler]():
        env = Environment()
    fired = []

    def spawn(env, idx, delay, cancel):
        timer = env.timeout(delay)
        if cancel:
            timer.cancel()
            yield env.timeout(0.0)
        else:
            yield timer
        fired.append((idx, env.now))

    for idx, (delay, cancel) in enumerate(items):
        env.process(spawn(env, idx, delay, cancel))
    for j, delay in enumerate(outliers):
        env.process(spawn(env, 10_000 + j, delay, False))
    env.run()
    return fired


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.floats(1e4, 1e8, allow_nan=False), max_size=3),
)
@example(
    # One 3.849e-141 gap tunes the width down to its 2**-60 clamp, so
    # 1e4 / width >= 2**53: adding a bucket width to the outlier's time
    # rounds back to it, the horizon cannot pass it, and it stays in the
    # overflow lane, which ``_pop_direct`` must then serve it from (it
    # popped the empty bucket and raised IndexError).
    items=[(0.0, False)] * 26 + [(0.0, True)] * 2 + [(3.849e-141, True)],
    outliers=[1e4],
)
def test_calendar_matches_heap_dispatch_order(items, outliers):
    """Identical programs dispatch identically on both schedulers.

    The outliers land far beyond the calendar horizon, forcing the
    overflow-heap path and its migration on horizon advance.
    """
    assert _run_trace("calendar", items, outliers) == _run_trace(
        "heap", items, outliers
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2,
                max_size=40))
def test_tie_heavy_schedules_preserve_fifo_on_both(delays):
    """Massive timestamp collisions: FIFO among equals, both backends."""
    items = [(d, False) for d in delays]
    calendar = _run_trace("calendar", items)
    assert calendar == _run_trace("heap", items)
    # Among equal fire times, creation (index) order is preserved.
    for i in range(1, len(calendar)):
        if calendar[i][1] == calendar[i - 1][1]:
            assert calendar[i][0] > calendar[i - 1][0]


def test_peek_on_empty_calendar_is_inf(env):
    assert env.peek() == float("inf")
    timer = env.timeout(3.5)
    assert env.peek() == 3.5
    timer.cancel()
    # A tombstone still occupies its slot until swept.
    assert env.peek() == 3.5
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_calendar_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_cancel_churn_keeps_calendar_bounded(env):
    """Regression: cancelled timers must not pile up as tombstones.

    An RPC retry loop cancels and re-arms its timer every round; before
    lazy-purge landed, each round leaked one queue entry and a long run
    grew the calendar without bound.
    """
    for _ in range(5_000):
        env.timeout(1e6).cancel()
    assert env.pending_events < 256


def test_unknown_scheduler_rejected():
    """Every name is unknown: the constructor has no scheduler knob."""
    with pytest.raises(TypeError):
        Environment(scheduler="heap")
    assert not hasattr(Environment(), "scheduler")


def test_timeout_pool_recycles_objects():
    """A popped Timeout nobody references is served again by identity."""
    env = Environment()

    def proc(env):
        for _ in range(4):
            yield env.timeout(0.25)

    env.process(proc(env))
    env.run()
    pool = env._timeout_pool
    assert pool, "finished timeouts should land on the free list"
    recycled = pool[-1]
    timer = env.timeout(1.5)
    assert timer is recycled
    assert timer.delay == 1.5
    # The recycled timer behaves like a fresh one.
    fired = []

    def waiter(env, timer):
        yield timer
        fired.append(env.now)

    env.process(waiter(env, timer))
    env.run()
    assert fired and fired[0] == pytest.approx(2.5)


def test_timeout_pool_skips_referenced_timeouts():
    """A Timeout still held by user code must never be resurrected."""
    env = Environment()
    held = []

    def proc(env):
        timer = env.timeout(0.1)
        held.append(timer)
        yield timer

    env.process(proc(env))
    env.run()
    assert held[0] not in env._timeout_pool
