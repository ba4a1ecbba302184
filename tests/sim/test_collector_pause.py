"""``Environment.run`` pauses CPython's cyclic collector, and owes it.

The loop runs with the collector off and puts the caller's setting back
on every exit.  Discarded simulations are cyclic garbage the paused
young passes never see, so a run also settles a full pass once the heap
has grown enough: a loop that builds, runs and drops clusters must not
keep them all alive.
"""

import gc

import pytest

from repro.check.explorer import run_schedule
from repro.faults import FaultSpec
from repro.sim import Environment, SimulationError


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The caller's collector setting, restored after the test."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


def _sleeper(env, seen, value=None):
    yield env.timeout(1.0)
    seen.append(gc.isenabled())
    yield env.timeout(1.0)
    return value


def _failing(env, seen):
    yield env.timeout(1.0)
    seen.append(gc.isenabled())
    raise KeyError("boom")


def test_normal_return_restores(collector):
    env = Environment()
    seen = []
    env.process(_sleeper(env, seen))
    assert env.run() is None
    assert gc.isenabled() is collector
    assert seen == [False]


def test_until_time_restores(collector):
    env = Environment()
    seen = []
    env.process(_sleeper(env, seen))
    env.run(until=1.5)
    assert env.now == 1.5
    assert gc.isenabled() is collector
    assert seen == [False]


def test_until_event_restores(collector):
    env = Environment()
    seen = []
    proc = env.process(_sleeper(env, seen, value="done"))
    assert env.run(until=proc) == "done"
    assert gc.isenabled() is collector
    assert seen == [False]


def test_until_processed_event_restores(collector):
    env = Environment()
    proc = env.process(_sleeper(env, [], value="done"))
    env.run()
    assert env.run(until=proc) == "done"
    assert gc.isenabled() is collector


def test_until_processed_failed_event_restores(collector):
    env = Environment()
    event = env.event()
    event.fail(KeyError("gone"))
    event.defused = True
    env.run()
    with pytest.raises(KeyError):
        env.run(until=event)
    assert gc.isenabled() is collector


def test_simulation_error_restores(collector):
    env = Environment()
    seen = []
    env.process(_failing(env, seen))
    with pytest.raises(SimulationError):
        env.run()
    assert gc.isenabled() is collector
    assert seen == [False]


def test_unreachable_event_restores(collector):
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())
    assert gc.isenabled() is collector


def test_until_past_restores(collector):
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)
    assert gc.isenabled() is collector


def test_nested_run_leaves_the_outer_pause_alone():
    env = Environment()
    inner = Environment()
    seen = []

    def outer(env):
        yield env.timeout(1.0)
        inner.process(_sleeper(inner, seen))
        inner.run()
        seen.append(gc.isenabled())

    env.process(outer(env))
    assert gc.isenabled()
    env.run()
    assert gc.isenabled()
    assert seen == [False, False]


def _live_environments():
    return sum(1 for o in gc.get_objects() if type(o) is Environment)


def test_discarded_simulations_are_reclaimed():
    # A check schedule allocates most of what it keeps inside its runs
    # (spans, histories), where no young pass counts towards CPython's
    # own full-pass trigger: with the pause alone, dropped clusters
    # stay alive until that trigger fires, about every ten schedules.
    assert gc.isenabled()
    gc.collect()
    before = _live_environments()
    counts = []
    for seed in range(12):
        outcome = run_schedule(FaultSpec(), seed=seed)
        del outcome
        counts.append(_live_environments() - before)
    assert max(counts) <= 5, counts
