"""Tests for event primitives: success/failure, conditions, composition."""

import pytest

from repro.core.kernel import AllOf, AnyOf, ConditionValue
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_event_lifecycle(env):
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(41)
    assert ev.triggered and not ev.processed
    env.run()
    assert ev.processed
    assert ev.value == 41


def test_event_value_unavailable_before_trigger(env):
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yielding_succeeded_event_passes_value(env):
    got = []

    def proc(env):
        ev = env.event()
        ev.succeed("payload")
        value = yield ev
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_all_of_collects_all_values(env):
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        cond = yield AllOf(env, [t1, t2])
        results.append(list(cond.values()))
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [["a", "b"], 2]


def test_any_of_returns_first(env):
    results = []

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(1, value="fast")
        cond = yield AnyOf(env, [t1, t2])
        results.append(list(cond.values()))
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [["fast"], 1]


def test_and_or_operators(env):
    results = []

    def proc(env):
        t1 = env.timeout(1, value=1)
        t2 = env.timeout(2, value=2)
        cond = yield (t1 & t2)
        results.append(len(cond))

    env.process(proc(env))
    env.run()
    assert results == [2]


def test_empty_all_of_fires_immediately(env):
    results = []

    def proc(env):
        value = yield AllOf(env, [])
        results.append((env.now, len(value)))

    env.process(proc(env))
    env.run()
    assert results == [(0.0, 0)]


def test_condition_failure_propagates(env):
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("inner")

    def proc(env, p):
        try:
            yield AllOf(env, [p, env.timeout(5)])
        except RuntimeError as exc:
            caught.append(str(exc))

    p = env.process(bad(env))
    env.process(proc(env, p))
    env.run()
    assert caught == ["inner"]


def test_condition_value_mapping(env):
    e1, e2 = env.timeout(1, value="x"), env.timeout(2, value="y")
    cond = AllOf(env, [e1, e2])
    env.run()
    cv = cond.value
    assert isinstance(cv, ConditionValue)
    assert cv[e1] == "x" and cv[e2] == "y"
    assert cv == {e1: "x", e2: "y"}
    assert e1 in cv
    with pytest.raises(KeyError):
        _ = cv[env.event()]


def test_negative_timeout_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_cross_environment_condition_rejected(env):
    other = Environment()
    with pytest.raises(ValueError):
        AllOf(env, [env.timeout(1), other.timeout(1)])
