"""Kernel primitives on the asyncio substrate.

The same generator processes, stores, timeouts and conditions that run
on the virtual calendar must run unmodified on a real event loop via
:class:`repro.rt.AsyncioEffects` -- that is the substrate contract of
DESIGN §16.  Times here are real seconds, so delays are kept tiny.
"""

import asyncio
import time

import pytest

from repro.core.effects import Effects
from repro.core.kernel.events import Event
from repro.core.kernel.resources import Store
from repro.rt.effects import AsyncioEffects


def _run(coro):
    return asyncio.run(coro)


def test_is_an_effects_substrate():
    async def main():
        env = AsyncioEffects()
        assert isinstance(env, Effects)
        assert env.loop is asyncio.get_running_loop()
        return env.now

    start = _run(main())
    assert 0.0 <= start < 1.0


def test_process_timeout_and_now():
    async def main():
        env = AsyncioEffects()
        marks = []

        def proc():
            t0 = env.now
            yield env.timeout(0.01)
            marks.append(env.now - t0)
            yield env.timeout(0.01)
            marks.append(env.now - t0)
            return "done"

        result = await env.wait(env.process(proc()))
        return result, marks

    result, marks = _run(main())
    assert result == "done"
    assert marks[0] >= 0.01
    assert marks[1] >= 0.02


def test_store_producer_consumer():
    async def main():
        env = AsyncioEffects()
        store = Store(env)
        got = []

        def producer():
            for i in range(5):
                yield env.timeout(0.001)
                store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        p = env.process(producer())
        c = env.process(consumer())
        await env.wait(env.all_of([p, c]))
        return got

    assert _run(main()) == [0, 1, 2, 3, 4]


def test_any_of_reply_beats_timer_and_cancel_tombstones():
    """The rpc retry race on a real loop: the winning event's value
    comes back, and cancelling the losing timer leaves only a no-op
    tombstone for its already-armed loop timer."""

    async def main():
        env = AsyncioEffects()
        reply = Event(env)

        def responder():
            yield env.timeout(0.005)
            reply.succeed("pong")

        def caller():
            timer = env.timeout(5.0)
            yield env.any_of([reply, timer])
            assert reply.triggered
            timer.cancel()
            return reply.value

        env.process(responder())
        result = await env.wait(env.process(caller()))
        env.check_failures()
        return result

    assert _run(main()) == "pong"


def test_spawn_and_all_of():
    async def main():
        env = AsyncioEffects()

        def worker(k):
            yield env.timeout(0.001 * k)
            return k * k

        procs = [env.process(worker(k)) for k in range(1, 4)]
        await env.wait(env.all_of(procs))
        return [p.value for p in procs]

    assert _run(main()) == [1, 4, 9]


def test_future_bridges_both_ways():
    async def main():
        env = AsyncioEffects()

        # asyncio -> kernel: a future's result completes a kernel event.
        future = asyncio.get_running_loop().create_future()
        event = env.event_from_future(future)
        future.set_result(42)
        await asyncio.sleep(0)
        assert event.triggered and event.value == 42

        # kernel -> asyncio: awaiting an already-processed event works.
        done = env.timeout(0.0, value="early")
        await asyncio.sleep(0.005)
        return await env.wait(done)

    assert _run(main()) == "early"


def test_process_failure_propagates_through_wait():
    async def main():
        env = AsyncioEffects()

        def boom():
            yield env.timeout(0.001)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            await env.wait(env.process(boom()))
        # The awaiter consumed (defused) the failure; nothing unhandled.
        env.check_failures()

    _run(main())


def test_unhandled_failure_is_recorded():
    async def main():
        env = AsyncioEffects()
        loop = asyncio.get_running_loop()
        # Keep the default handler from printing during the test.
        loop.set_exception_handler(lambda _loop, _ctx: None)

        def boom():
            yield env.timeout(0.001)
            raise ValueError("nobody listening")

        env.process(boom())
        await asyncio.sleep(0.01)
        assert len(env.failures) == 1
        with pytest.raises(ValueError, match="nobody listening"):
            env.check_failures()

    _run(main())


def test_obs_defaults_to_none():
    async def main():
        env = AsyncioEffects()
        assert env.obs is None

    _run(main())


# -- the calendar: one drain per loop tick ---------------------------------


def _spy_handles(env):
    """Record every handle ``env`` asks its loop for, as
    ``(method, callback name, when)``."""
    loop = env.loop
    asked = []

    def wrap(method):
        original = getattr(loop, method)

        def spied(*args, **kwargs):
            callback = args[0] if method == "call_soon" else args[1]
            if getattr(callback, "__self__", None) is env:
                when = None if method == "call_soon" else args[0]
                asked.append((method, callback.__name__, when))
            return original(*args, **kwargs)

        setattr(loop, method, spied)

    for method in ("call_soon", "call_at", "call_later"):
        wrap(method)
    return asked


def test_a_burst_of_events_and_timers_costs_three_loop_handles():
    async def main():
        env = AsyncioEffects()
        asked = _spy_handles(env)
        seen = []

        def burst():
            for index in range(1000):
                event = env.event()
                event.callbacks.append(lambda _e, i=index: seen.append(i))
                event.succeed()
            # Armed within microseconds of each other: the alarm for the
            # first deadline is at most one more alarm short of them all.
            yield env.all_of([env.timeout(0.002) for _ in range(100)])

        await env.wait(env.process(burst()))
        assert seen == list(range(1000))
        # One call_soon for the process's start, one call_at per alarm.
        assert len(asked) <= 3, asked
        assert asked[0][:2] == ("call_soon", "_wake")
        assert {a[0] for a in asked[1:]} == {"call_at"}
        assert 0 < env.drains <= 3
        assert env.events_dispatched >= 1100

    _run(main())


def test_deadlines_that_pass_during_a_drain_are_served_by_it():
    async def main():
        env = AsyncioEffects()
        asked = _spy_handles(env)
        order = []

        def chain():
            timers = [env.timeout(0.001 * k) for k in (3, 1, 2)]
            for timer, k in zip(timers, (3, 1, 2)):
                timer.callbacks.append(lambda _e, k=k: order.append(k))
            time.sleep(0.004)  # real CPU time outruns every delay
            yield env.all_of(timers)
            return order

        t0 = env.now
        result = await env.wait(env.process(chain()))
        assert result == [1, 2, 3]
        assert env.now - t0 >= 0.004
        assert asked == [("call_soon", "_wake", None)]
        assert env.drains == 1

    _run(main())


def test_tombstoned_timer_arms_no_call_at():
    async def main():
        env = AsyncioEffects()
        asked = _spy_handles(env)

        def proc():
            env.timeout(0.05).cancel()
            yield env.timeout(0)

        await env.wait(env.process(proc()))
        assert [a[0] for a in asked] == ["call_soon"]

        # With a live timer behind it, the alarm is armed for that one.
        del asked[:]
        before = env.loop.time()

        def proc2():
            doomed = env.timeout(0.001)
            live = env.timeout(0.004)
            doomed.cancel()
            yield live

        await env.wait(env.process(proc2()))
        alarms = [a for a in asked if a[0] == "call_at"]
        assert len(alarms) == 1
        assert alarms[0][2] >= before + 0.004

    _run(main())


def test_raising_callback_is_reported_once_and_strands_nothing():
    async def main():
        env = AsyncioEffects()
        asked = _spy_handles(env)
        reported = []
        env.loop.set_exception_handler(
            lambda _loop, context: reported.append(context)
        )
        ran = []

        def bad(_event):
            raise RuntimeError("callback bug")

        for index in range(101):
            event = env.event()
            event.callbacks.append(
                bad if index == 50 else lambda _e, i=index: ran.append(i)
            )
            event.succeed()
        await asyncio.sleep(0)
        assert ran == [i for i in range(101) if i != 50]
        assert len(reported) == 1
        assert isinstance(reported[0]["exception"], RuntimeError)
        assert env.failures == []  # a callback bug is not an event failure
        assert len(asked) == 1 and env.drains == 1

    _run(main())


def test_loop_callback_runs_right_after_the_drain_of_a_long_chain():
    """Run to quiescence: a 10 000-hop zero-delay chain is one drain, and
    a loop callback registered once the chain was started waits for that
    drain and no longer."""

    async def main():
        env = AsyncioEffects()
        log = []

        def hop(index):
            def callback(_event):
                log.append(index)
                if index + 1 < 10_000:
                    following = env.event()
                    following.callbacks.append(hop(index + 1))
                    following.succeed()

            return callback

        first = env.event()
        first.callbacks.append(hop(0))
        first.succeed()
        env.loop.call_soon(log.append, "io")
        await asyncio.sleep(0)
        assert log == list(range(10_000)) + ["io"]
        assert env.drains == 1
        assert env.events_dispatched == 10_000

    _run(main())


def test_event_succeeded_from_a_plain_asyncio_task_is_dispatched():
    async def main():
        env = AsyncioEffects()
        event = env.event()

        async def other():
            await asyncio.sleep(0.001)
            event.succeed("from a task")

        task = asyncio.create_task(other())
        value = await asyncio.wait_for(env.wait(event), 1.0)
        await task
        return value

    assert _run(main()) == "from a task"


def test_system_exit_out_of_a_drain_leaves_the_rest_runnable():
    loop = asyncio.new_event_loop()
    try:
        env = AsyncioEffects(loop)
        ran = []

        def leave(_event):
            raise SystemExit(3)

        for callback in (leave, lambda _e: ran.append("behind")):
            event = env.event()
            event.callbacks.append(callback)
            event.succeed()
        with pytest.raises(SystemExit):
            loop.run_forever()
        assert ran == []
        loop.call_soon(loop.stop)
        loop.run_forever()
        assert ran == ["behind"]
    finally:
        loop.close()
