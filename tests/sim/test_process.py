"""Tests for process semantics: join, return values, interrupts."""

import pytest

from repro.core.kernel import Interrupt
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_process_return_value(env):
    def child(env):
        yield env.timeout(1)
        return 99

    def parent(env, results):
        value = yield env.process(child(env))
        results.append(value)

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == [99]


def test_process_is_alive(env):
    def child(env):
        yield env.timeout(5)

    p = env.process(child(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yield_non_event_fails_process(env):
    def bad(env):
        yield "not an event"

    def watcher(env, p, caught):
        try:
            yield p
        except RuntimeError as exc:
            caught.append("non-event" in str(exc))

    caught = []
    p = env.process(bad(env))
    env.process(watcher(env, p, caught))
    env.run()
    assert caught == [True]


def test_interrupt_delivers_cause(env):
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(env, target):
        yield env.timeout(3)
        target.interrupt(cause="shrink")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [(3.0, "shrink")]


def test_interrupt_detaches_from_target(env):
    """After an interrupt, the original wait target must not resume us."""
    log = []

    def victim(env):
        try:
            yield env.timeout(5)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(100)
        log.append("second wait done")

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == ["interrupted", "second wait done"]
    assert env.now == 101.0


def test_interrupting_terminated_process_raises(env):
    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_self_interrupt_rejected(env):
    def proc(env):
        with pytest.raises(RuntimeError):
            env.active_process.interrupt()
        yield env.timeout(1)

    env.process(proc(env))
    env.run()


def test_interrupt_on_about_to_terminate_process_is_dropped(env):
    """Interrupt scheduled the same instant the victim terminates is benign."""

    def victim(env):
        yield env.timeout(1)

    def attacker(env, target):
        yield env.timeout(1)
        if target.is_alive:
            target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()  # must not raise


def test_active_process_visible_inside(env):
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_process_rejects_non_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_chained_processes(env):
    def level3(env):
        yield env.timeout(1)
        return 3

    def level2(env):
        v = yield env.process(level3(env))
        return v + 10

    def level1(env, out):
        v = yield env.process(level2(env))
        out.append(v)

    out = []
    env.process(level1(env, out))
    env.run()
    assert out == [13]
