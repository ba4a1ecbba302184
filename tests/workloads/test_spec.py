"""Tests for the workload abstraction: contexts, timing, registries."""

import pytest

from repro.analysis.metrics import OpMetrics
from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.workloads.spec import Workload, WorkloadContext, timed


def make_ctx(env, client_index=0, shared=None):
    return WorkloadContext(
        env=env,
        fs=None,
        rng=StreamRNG(5).stream("t", client_index),
        client_index=client_index,
        num_clients=2,
        metrics=OpMetrics(),
        shared=shared if shared is not None else {},
    )


def test_unique_names_are_unique():
    env = Environment()
    ctx = make_ctx(env)
    names = {ctx.unique_name("f") for _ in range(100)}
    assert len(names) == 100
    other = make_ctx(env, client_index=1)
    assert not names & {other.unique_name("f") for _ in range(100)}


def test_timed_records_only_while_measuring():
    env = Environment()
    ctx = make_ctx(env)

    def op(env):
        yield env.timeout(0.5)
        return "ok"

    def driver(env):
        result = yield from timed(ctx, "op", op(env), nbytes=10)
        assert result == "ok"
        ctx.measuring = True
        yield from timed(ctx, "op", op(env), nbytes=10)

    env.process(driver(env))
    env.run()
    assert ctx.metrics.count("op") == 1  # only the measured one
    assert ctx.metrics.latency("op").mean == pytest.approx(0.5)
    assert ctx.metrics.total_bytes == 10


def test_registry_shared_across_contexts():
    env = Environment()
    shared = {}
    a = make_ctx(env, 0, shared)
    b = make_ctx(env, 1, shared)
    Workload.register_file(a, file_id=1, size=100)
    Workload.register_file(b, file_id=2, size=200)
    assert len(Workload.registry(a)) == 2
    assert Workload.registry(a) is Workload.registry(b)


def test_seed_registry_only_during_setup():
    env = Environment()
    ctx = make_ctx(env)
    Workload.register_file(ctx, 1, 100)  # in_setup: a seed
    ctx.in_setup = False
    Workload.register_file(ctx, 2, 100)  # runtime file (even pre-measure)
    ctx.measuring = True
    Workload.register_file(ctx, 3, 100)  # runtime file
    assert [e[1] for e in Workload.seed_registry(ctx)] == [1]
    assert [e[1] for e in Workload.registry(ctx)] == [1, 2, 3]


def test_pick_file_prefer_remote():
    env = Environment()
    shared = {}
    a = make_ctx(env, 0, shared)
    b = make_ctx(env, 1, shared)
    Workload.register_file(a, 1, 100)
    Workload.register_file(b, 2, 100)
    for _ in range(20):
        entry = Workload.pick_file(a, prefer_remote=True)
        assert entry[0] == 1  # always the remote client's file


def test_pick_file_prefer_remote_draws_like_a_choice_over_the_remotes():
    """A remote pick is one ``rng.choice`` over the remote entries in
    registry order -- one draw, that entry -- through interleaved
    registrations and deletions.  RNG streams and block traces hang on
    it, so a cheaper pick must keep it."""
    env = Environment()
    shared = {}
    ctxs = [make_ctx(env, i, shared) for i in range(3)]
    twins = [make_ctx(env, i) for i in range(3)]  # same streams
    file_id = 0
    for round_ in range(40):
        for ctx in ctxs:
            ctx.in_setup = round_ < 20
            file_id += 1
            Workload.register_file(ctx, file_id, 100)
        if round_ % 3 == 2:
            victim = Workload.registry(ctxs[1])[(5 * round_) % 8]
            Workload.unregister_file(ctxs[1], victim)
        for ctx, twin in zip(ctxs, twins):
            for seeds_only in (False, True):
                view = (
                    Workload.seed_registry(ctx)
                    if seeds_only
                    else Workload.registry(ctx)
                )
                expected = twin.rng.choice(
                    [e for e in view if e[0] != ctx.client_index]
                )
                picked = Workload.pick_file(
                    ctx, prefer_remote=True, seeds_only=seeds_only
                )
                assert picked is expected
    # Only own files registered: falls back to the whole registry.
    lone = make_ctx(env, 5)
    Workload.register_file(lone, 1, 100)
    assert Workload.pick_file(lone, prefer_remote=True)[0] == 5


def test_pick_file_seeds_only():
    env = Environment()
    ctx = make_ctx(env)
    Workload.register_file(ctx, 1, 100)
    ctx.in_setup = False
    Workload.register_file(ctx, 2, 100)
    for _ in range(10):
        assert Workload.pick_file(ctx, seeds_only=True)[1] == 1


def test_pick_file_empty_registry():
    env = Environment()
    ctx = make_ctx(env)
    assert Workload.pick_file(ctx) is None


def test_think_advances_clock():
    env = Environment()
    ctx = make_ctx(env)

    class W(Workload):
        think_time = 0.01

    def driver(env):
        yield from W().think(ctx)

    env.process(driver(env))
    env.run()
    assert env.now > 0
