"""The event calendar: the engine's heap and the contracts around it.

Whatever is pushed, the calendar must dispatch in the total
``(time, priority, seq)`` order -- i.e. the order ``sorted()`` gives the
pushed keys -- under timestamp ties, far-future and infinite times,
urgent priorities, pushes made while dispatching and cancellations,
whether the calendar is driven by ``run()`` or by ``step()``.  Plus the
engine-level guarantees: ``peek()`` and ``step()`` on an empty
calendar, bounded growth under cancel/reschedule churn (each on a fresh
calendar and on one already compacted and drained), and Timeout
recycling.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kernel.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event
from repro.sim import Environment, SimulationError

INF = float("inf")

#: Delays near and tied: a few shared values collide constantly.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)
#: Far beyond everything else, infinity included.
FAR = st.one_of(st.floats(1e4, 1e300, allow_nan=False), st.just(INF))


def _used_heap():
    """An environment whose heap has been compacted and drained.

    A burst of zero-delay cancels compacts the heap in place; the
    survivors dispatch and the last tombstones are swept at time 0, so
    the calendar is empty again with ``now == 0``, its list rebuilt and
    its Timeout free list filled.
    """
    env = Environment()
    timers = [env.timeout(0.0) for _ in range(100)]
    for timer in timers[:80]:
        timer.cancel()
    # The 64th cancel sweeps the heap; the 16 after it stay tombstones.
    assert env.pending_events == 20 + 16, "the cancel burst should compact"
    del timers, timer  # held Timeouts are never recycled
    env.run()
    assert env.now == 0.0 and env.pending_events == 0
    assert env._timeout_pool
    return env


#: The empty-calendar contracts must hold on a fresh calendar and on a
#: heap that has already been compacted and drained.
CALENDARS = {"calendar": Environment, "heap": _used_heap}


@pytest.fixture(params=sorted(CALENDARS))
def env(request):
    return CALENDARS[request.param]()


def _drain(env, drive):
    if drive == "run":
        env.run()
    else:
        while env.pending_events:
            env.step()


def _dispatch(items, far, urgent, children, drive):
    """Push a schedule, dispatch it; return (expected, dispatched) keys.

    ``items`` are ``(delay, cancel)`` pairs: a live event (urgent or
    normal priority, cycling through ``urgent``) or a Timeout to cancel.
    Every other cancel happens before the run, the rest one per live
    dispatch (latest victim first), so tombstones appear mid-run too; a
    victim that fired first is simply dispatched.  The first live
    events push a child ``children[i]`` later (``None``: no child).
    ``far`` adds live events far in the future.  Expected is
    ``sorted()`` over every key pushed and not cancelled while pending.
    """
    env = Environment()
    pushed, cancelled, dispatched = [], set(), []
    victims = []

    def push(event, delay, priority):
        key = (env.now + delay, priority, env.scheduled_events)
        event.callbacks.append(lambda _e: dispatched.append(key))
        env.schedule(event, delay, priority)
        pushed.append(key)
        return key

    def live(delay, priority, child):
        event = Event(env)
        event._ok, event._value = True, None
        push(event, delay, priority)
        event.callbacks.append(lambda _e: on_live(child))

    def on_live(child):
        if victims:
            key, timer = victims.pop()
            if timer.callbacks is not None:
                cancelled.add(key)
            timer.cancel()
        if child is not None:
            live(child, PRIORITY_NORMAL, None)

    n_live = 0
    for delay, cancel in items:
        if cancel:
            key = (delay, PRIORITY_NORMAL, env.scheduled_events)
            timer = env.timeout(delay)
            pushed.append(key)
            timer.callbacks.append(lambda _e, key=key: dispatched.append(key))
            victims.append((key, timer))
        else:
            priority = (
                PRIORITY_URGENT
                if urgent and urgent[n_live % len(urgent)]
                else PRIORITY_NORMAL
            )
            child = children[n_live] if n_live < len(children) else None
            live(delay, priority, child)
            n_live += 1
    for delay in far:
        live(delay, PRIORITY_NORMAL, None)
    for key, timer in victims[::2]:
        cancelled.add(key)
        timer.cancel()
    victims[:] = victims[1::2]

    _drain(env, drive)
    return sorted(k for k in pushed if k not in cancelled), dispatched


@settings(max_examples=150, deadline=None)
@given(
    items=st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=60),
    far=st.lists(FAR, max_size=4),
    urgent=st.lists(st.booleans(), max_size=6),
    children=st.lists(st.one_of(st.none(), DELAYS, FAR), max_size=8),
    drive=st.sampled_from(["run", "step"]),
)
@example(
    # Gaps of 3.849e-141 among a 26-way tie, with a 1e4 outlier: the
    # bucketed calendar this heap replaced tuned its width down to a
    # clamp where the outlier could never be migrated out of its
    # overflow lane.  Kept as an input; a heap has no such geometry.
    items=[(0.0, False)] * 26 + [(0.0, True)] * 2 + [(3.849e-141, True)],
    far=[1e4],
    urgent=[],
    children=[],
    drive="run",
)
def test_dispatch_order_is_sorted_entry_order(
    items, far, urgent, children, drive
):
    expected, dispatched = _dispatch(items, far, urgent, children, drive)
    assert dispatched == expected


@settings(max_examples=40, deadline=None)
@given(
    live=st.lists(DELAYS, min_size=1, max_size=20),
    victims=st.integers(64, 300),
    drive=st.sampled_from(["run", "step"]),
)
def test_cancel_heavy_schedules_compact_mid_run(live, victims, drive):
    """A burst of cancels inside a dispatch compacts the heap under the
    running loop; what is left still dispatches in sorted order."""
    env = Environment()
    dispatched = []
    timers = [env.timeout(1e3 + i % 7) for i in range(victims)]
    depth = []

    def cancel_all(_event):
        for timer in timers:
            timer.cancel()
        depth.append(env.pending_events)
        # Pushed after the compaction: the running loop must see it.
        key = (env.now + 0.5, PRIORITY_NORMAL, env.scheduled_events)
        keys.append(key)
        env.timeout(0.5).callbacks.append(lambda _e: dispatched.append(key))

    keys = []
    for delay in live:
        key = (delay, PRIORITY_NORMAL, env.scheduled_events)
        keys.append(key)
        timer = env.timeout(delay)
        timer.callbacks.append(lambda _e, key=key: dispatched.append(key))
    # One more entry at the earliest live time cancels every victim
    # while it dispatches.
    env.timeout(min(live)).callbacks.append(cancel_all)

    _drain(env, drive)
    assert dispatched == sorted(keys)
    assert env.pending_events == 0
    # Fewer than 64 tombstones are ever left unswept.
    assert depth and depth[0] < 64 + len(live)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2,
                max_size=40))
def test_tie_heavy_schedules_preserve_fifo_on_both(delays):
    """Massive timestamp collisions: FIFO among equals, and ``run()``
    and ``step()`` dispatch identically."""

    def trace(drive):
        env = Environment()
        fired = []

        def proc(env, idx, delay):
            yield env.timeout(delay)
            fired.append((idx, env.now))

        for idx, delay in enumerate(delays):
            env.process(proc(env, idx, delay))
        _drain(env, drive)
        return fired

    fired = trace("run")
    assert fired == trace("step")
    # Among equal fire times, creation (index) order is preserved.
    for i in range(1, len(fired)):
        if fired[i][1] == fired[i - 1][1]:
            assert fired[i][0] > fired[i - 1][0]


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


@pytest.mark.parametrize("drive", ["run", "step"])
def test_timeout_pool_fills_through_run_and_step(drive):
    """Both dispatch paths recycle fired and cancelled Timeouts nobody
    holds, and neither recycles one that is held."""
    env = Environment()
    held = []

    def proc(env):
        for i in range(6):
            timer = env.timeout(0.25)
            if i % 2:
                held.append(timer)
            yield timer
        # Tombstones: one held, one not.
        env.timeout(5.0).cancel()
        kept = env.timeout(6.0)
        held.append(kept)
        kept.cancel()

    env.process(proc(env))
    # Unheld timers firing after everything else: none is drawn again.
    for _ in range(8):
        env.timeout(10.0)
    _drain(env, drive)
    pool = env._timeout_pool
    assert len(pool) >= 8
    assert not any(timer is mine for timer in pool for mine in held)
