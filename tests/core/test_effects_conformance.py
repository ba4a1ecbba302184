"""One contract, two substrates: the ``Effects`` conformance suite.

Every test below builds its scenario from the ``Effects`` verbs and the
kernel primitives bound to them (``event``, ``timeout``, ``process``,
``any_of``, ``Store`` ...) and runs it unchanged on
:class:`repro.sim.SimEffects` and on :class:`repro.rt.AsyncioEffects`.
What must agree is dispatch *order* and kernel semantics; real delays
are kept at or under 5 ms and are binary fractions, so the virtual
clock's arithmetic is exact.

Where the substrates legitimately differ, :data:`DIFFERENCES` is the one
table that says so (quoted in DESIGN §16); the test named beside each
row asserts both of its cells.
"""

import asyncio
import operator

import pytest

from repro.core.kernel.process import Interrupt
from repro.core.kernel.resources import Resource, Store
from repro.net.link import Link
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.obs import Instrumentation
from repro.rt.effects import AsyncioEffects
from repro.sim import SimEffects, SimulationError

SIM = "SimEffects"
RT = "AsyncioEffects"

#: topic -> what each substrate does.
DIFFERENCES = {
    # test_urgent_band_is_a_sim_only_order
    "a normal event then an urgent one, same instant, dispatch as": {
        SIM: ["urgent", "normal"],
        RT: ["normal", "urgent"],
    },
    # test_unhandled_failure_surfaces
    "an unhandled failure": {
        SIM: "run() raises SimulationError",
        RT: "failures records it, check_failures() raises it",
    },
    # test_timer_never_fires_early
    "now, when a timer armed at t0 with delay d fires": {
        SIM: "== t0 + d",
        RT: ">= t0 + d",
    },
    # test_resolution_is_the_shortest_wait
    "shortest wait, s": {
        SIM: 0.0,
        RT: 1e-3,
    },
}

MS1 = 2.0**-10  # 0.98 ms
MS2 = 2.0**-9
MS4 = 2.0**-8  # 3.9 ms


class _Sim:
    name = SIM

    @staticmethod
    def run(build):
        """``(env, value of the event build(env) returns)``."""
        env = SimEffects()
        return env, env.run(until=build(env))


class _Rt:
    name = RT

    @staticmethod
    def run(build):
        async def main():
            # Unhandled failures are asserted through ``failures``; keep
            # the default handler from printing them.
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, _context: None
            )
            env = AsyncioEffects()
            return env, await asyncio.wait_for(env.wait(build(env)), 5.0)

        return asyncio.run(main())


@pytest.fixture(params=[_Sim, _Rt], ids=lambda driver: driver.name)
def substrate(request):
    return request.param


def _mark(log, label):
    return lambda _event: log.append(label)


def test_zero_delay_events_dispatch_fifo(substrate):
    def build(env):
        order = []

        def main():
            events = [env.event() for _ in range(20)]
            for index, event in enumerate(events):
                event.callbacks.append(_mark(order, index))
            # Scheduled while the first is dispatched: queues behind
            # everything already in hand.
            late = env.event()
            late.callbacks.append(_mark(order, "late"))
            events[0].callbacks.append(lambda _event: late.succeed())
            for event in events:
                event.succeed()
            yield env.timeout(MS1)
            return order

        return env.process(main())

    _env, order = substrate.run(build)
    assert order == list(range(20)) + ["late"]


def test_timers_fire_in_deadline_order(substrate):
    delays = [MS4, MS1, 3 * MS1, MS2, 5 * MS1]

    def build(env):
        order = []

        def main():
            for delay in delays:
                env.timeout(delay).callbacks.append(_mark(order, delay))
            yield env.timeout(6 * MS1)
            return order

        return env.process(main())

    _env, order = substrate.run(build)
    assert order == sorted(delays)


def test_equal_delays_armed_in_one_instant_fire_in_schedule_order(substrate):
    def build(env):
        order = []

        def main():
            for index in range(10):
                env.timeout(MS2).callbacks.append(_mark(order, index))
            yield env.timeout(MS4)
            return order

        return env.process(main())

    _env, order = substrate.run(build)
    assert order == list(range(10))


def test_timer_never_fires_early(substrate):
    delays = [MS1, MS2, MS1, MS4]

    def build(env):
        def main():
            marks = []
            for delay in delays:
                t0 = env.now
                yield env.timeout(delay)
                marks.append((t0, env.now))
            return marks

        return env.process(main())

    _env, marks = substrate.run(build)
    rule = DIFFERENCES["now, when a timer armed at t0 with delay d fires"]
    holds = {"== t0 + d": operator.eq, ">= t0 + d": operator.ge}[
        rule[substrate.name]
    ]
    for delay, (t0, now) in zip(delays, marks):
        assert now - t0 >= delay
        assert holds(now, t0 + delay)


def test_resolution_is_the_shortest_wait(substrate):
    env, _value = substrate.run(lambda env: env.timeout(0))
    assert env.resolution == DIFFERENCES["shortest wait, s"][substrate.name]


def test_obs_travels_with_the_substrate(substrate):
    """``Instrumentation.attach`` sets ``env.obs``; a protocol object
    built on ``env`` afterwards takes the bundle from there."""
    obs = Instrumentation()

    def build(env):
        assert env.obs is None
        obs.attach(env)
        transport = RpcTransport(env, Link(env), Link(env), RpcServerPort(env))
        return env.timeout(0, value=RpcClient(env, 0, transport))

    env, rpc = substrate.run(build)
    assert env.obs is obs
    assert rpc.obs is obs


def test_cancelled_timeout_never_runs_its_callbacks(substrate):
    def build(env):
        fired = []

        def main():
            doomed = env.timeout(MS2)
            doomed.callbacks.append(_mark(fired, "cancelled"))
            kept = env.timeout(3 * MS1)
            kept.callbacks.append(_mark(fired, "kept"))
            doomed.cancel()
            assert doomed.callbacks is None  # the tombstone
            doomed.cancel()  # idempotent
            yield env.timeout(MS4)
            kept.cancel()  # already processed: a no-op
            return fired

        return env.process(main())

    _env, fired = substrate.run(build)
    assert fired == ["kept"]


def test_all_of_and_any_of_values(substrate):
    def build(env):
        def main():
            a = env.timeout(MS1, value="a")
            b = env.timeout(MS2, value="b")
            both = yield env.all_of([b, a])
            assert list(both.values()) == ["b", "a"]  # argument order
            assert both[a] == "a"

            fast = env.timeout(MS1, value="fast")
            slow = env.timeout(MS4, value="slow")
            first = yield env.any_of([slow, fast])
            assert first.todict() == {fast: "fast"}
            slow.cancel()

            nothing = yield env.all_of([])
            return len(nothing)

        return env.process(main())

    _env, empty = substrate.run(build)
    assert empty == 0


def test_reply_beats_timer_and_the_loser_is_cancelled(substrate):
    """The rpc retry race: the caller cancels the losing timer itself,
    which leaves a tombstone either calendar skips."""

    def build(env):
        fired = []

        def responder(reply):
            yield env.timeout(MS1)
            reply.succeed("pong")

        def main():
            reply = env.event()
            env.process(responder(reply))
            timer = env.timeout(MS4)
            timer.callbacks.append(_mark(fired, "timer"))
            yield env.any_of([reply, timer])
            assert reply.triggered and timer.callbacks is not None
            timer.cancel()
            assert timer.callbacks is None
            yield env.timeout(MS4 + MS1)  # past the loser's deadline
            return reply.value, fired

        return env.process(main())

    env, (value, fired) = substrate.run(build)
    assert value == "pong"
    assert fired == []
    if substrate.name == RT:
        env.check_failures()


def test_interrupt_detaches_a_sleeper_from_its_timer(substrate):
    """The sleeper is resumed once, by the Interrupt; its orphaned
    timer has no subscriber left, and only an explicit ``cancel()``
    makes it a tombstone (``_Interruption`` never cancels it)."""

    def build(env):
        log = []

        def sleeper():
            try:
                yield env.timeout(MS4)
                log.append("overslept")
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause))
            yield env.timeout(MS4)  # ends after the orphan's deadline
            log.append("done")

        def main():
            proc = env.process(sleeper())
            yield env.timeout(MS1)
            orphan = proc.target
            proc.interrupt("retire")
            yield env.timeout(0)
            assert orphan.callbacks == []  # detached, still scheduled
            orphan.cancel()
            assert orphan.callbacks is None
            yield proc
            return log

        return env.process(main())

    _env, log = substrate.run(build)
    assert log == [("interrupted", "retire"), "done"]


def test_interrupted_sleepers_uncancelled_timer_fires_into_nothing(substrate):
    def build(env):
        log = []

        def sleeper():
            try:
                yield env.timeout(MS2)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(MS4)
            log.append("done")

        def main():
            proc = env.process(sleeper())
            yield env.timeout(MS1)
            proc.interrupt()
            yield proc
            return log

        return env.process(main())

    _env, log = substrate.run(build)
    assert log == ["interrupted", "done"]


@pytest.mark.parametrize("capacity", [float("inf"), 2])
def test_store_is_fifo_under_eight_producer_fan_in(substrate, capacity):
    def build(env):
        store = Store(env, capacity)
        put_order, got = [], []

        def producer(k):
            for i in range(5):
                put_order.append((k, i))
                yield store.put((k, i))

        def consumer():
            for _ in range(40):
                got.append((yield store.get()))

        def main():
            procs = [env.process(producer(k)) for k in range(8)]
            procs.append(env.process(consumer()))
            yield env.all_of(procs)
            return put_order, got

        return env.process(main())

    _env, (put_order, got) = substrate.run(build)
    assert got == put_order
    assert sorted(got) == [(k, i) for k in range(8) for i in range(5)]
    if capacity == float("inf"):
        # No put ever waits: the producers take strict turns.
        assert got == [(k, i) for i in range(5) for k in range(8)]


@pytest.mark.parametrize("capacity", [1, 2])
def test_resource_grants_in_request_order(substrate, capacity):
    def build(env):
        resource = Resource(env, capacity)
        granted = []

        def user(k):
            with resource.request() as request:
                yield request
                granted.append(k)
                yield env.timeout(MS1 / 4)

        def main():
            yield env.all_of([env.process(user(k)) for k in range(6)])
            return granted

        return env.process(main())

    _env, granted = substrate.run(build)
    assert granted == list(range(6))


def _count_schedules(env, monkeypatch):
    """A list that collects every event ``env`` puts on its calendar."""
    scheduled = []
    original = type(env).schedule

    def schedule(self, event, *args, **kwargs):
        scheduled.append(event)
        original(self, event, *args, **kwargs)

    monkeypatch.setattr(type(env), "schedule", schedule)
    return scheduled


def test_uncontended_request_is_granted_in_place(substrate, monkeypatch):
    def build(env):
        scheduled = _count_schedules(env, monkeypatch)
        resource = Resource(env, 1)

        def main():
            before = len(scheduled)
            with resource.request() as request:
                processed = request.processed
                yield request
                entries = len(scheduled) - before
            return processed, entries, resource.count

        return env.process(main())

    _env, (processed, entries, held_after) = substrate.run(build)
    # Born processed: neither the grant nor the yield touched the
    # calendar, and the slot went back on leaving the ``with``.
    assert processed is True
    assert entries == 0
    assert held_after == 0


def test_contended_requests_are_granted_fifo_through_the_calendar(
    substrate, monkeypatch
):
    def build(env):
        scheduled = _count_schedules(env, monkeypatch)
        resource = Resource(env, 1)
        held = resource.request()
        waiting = [resource.request() for _ in range(3)]
        log = []

        def main():
            yield held
            states = [(w.triggered, w.processed) for w in waiting]
            resource.release(held)
            # The head waiter is granted: triggered and on the calendar,
            # processed only when the calendar dispatches it.
            granted = waiting[0]
            log.append((granted.triggered, granted.processed,
                        scheduled[-1] is granted))
            for request in waiting:
                yield request
                log.append(resource.users == [request])
                resource.release(request)
            return states, log

        return env.process(main())

    _env, (states, log) = substrate.run(build)
    assert states == [(False, False)] * 3
    assert log == [(True, False, True), True, True, True]


def test_failure_with_a_waiter_is_delivered_and_defused(substrate):
    def build(env):
        def boom():
            yield env.timeout(MS1)
            raise ValueError("boom")

        def main():
            try:
                yield env.process(boom())
            except ValueError as exc:
                return str(exc)

        return env.process(main())

    env, caught = substrate.run(build)
    assert caught == "boom"
    if substrate.name == RT:
        assert env.failures == []


def test_unhandled_failure_surfaces(substrate):
    def build(env):
        def boom():
            yield env.timeout(MS1)
            raise ValueError("nobody listening")

        def main():
            env.process(boom())
            yield env.timeout(MS4)

        return env.process(main())

    try:
        env, _value = substrate.run(build)
    except SimulationError as exc:
        assert "nobody listening" in str(exc)
        observed = "run() raises SimulationError"
    else:
        assert [str(exc) for exc in env.failures] == ["nobody listening"]
        with pytest.raises(ValueError, match="nobody listening"):
            env.check_failures()
        observed = "failures records it, check_failures() raises it"
    assert observed == DIFFERENCES["an unhandled failure"][substrate.name]


def test_urgent_band_is_a_sim_only_order(substrate):
    """Process initialisation is scheduled urgent.  The simulator runs
    it before a normal event scheduled earlier at the same instant;
    ``AsyncioEffects`` ignores ``priority`` and keeps schedule order."""

    def build(env):
        order = []

        def child():
            order.append("urgent")
            yield env.timeout(0)

        def main():
            normal = env.event()
            normal.callbacks.append(_mark(order, "normal"))
            normal.succeed()
            env.process(child())
            yield env.timeout(MS1)
            return order

        return env.process(main())

    _env, order = substrate.run(build)
    assert order == DIFFERENCES[
        "a normal event then an urgent one, same instant, dispatch as"
    ][substrate.name]
