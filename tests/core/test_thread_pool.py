"""Tests for the adaptive commit thread pool (§IV.B)."""

import pytest

from repro.core.commit_queue import CommitQueue
from repro.core.compound import CompoundController
from repro.core.daemon import CommitDaemonContext
from repro.core.thread_pool import AdaptiveCommitThreadPool, ThreadPoolPolicy
from repro.mds.extent import Extent
from repro.net.link import Link
from repro.net.messages import CommitPayload
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.core.kernel.events import Event
from repro.sim import Environment


def ext(fo=0):
    return Extent(file_offset=fo, length=4096, device_id=0, volume_offset=fo)


def make_pool(env, max_threads=9, max_queue_len=90, control_period=0.1,
              server_delay=0.01):
    """Pool + slow echo MDS so the queue can actually back up."""
    up, down = Link(env), Link(env)
    port = RpcServerPort(env)
    rpc = RpcClient(env, 0, RpcTransport(env, up, down, port))

    def server(env):
        while True:
            (msg,) = yield port.next_group()
            yield env.timeout(server_delay)
            results = [True] * msg.op_count()
            port.reply(msg, results)

    env.process(server(env))
    queue = CommitQueue(env)
    controller = CompoundController(env, up, fixed_degree=1)
    ctx = CommitDaemonContext(env, queue, rpc, controller)
    policy = ThreadPoolPolicy(
        max_threads=max_threads,
        max_queue_len=max_queue_len,
        control_period=control_period,
    )
    pool = AdaptiveCommitThreadPool(env, ctx, policy)
    return pool, queue, ctx


def stable_event(env):
    ev = Event(env)
    ev.succeed()
    return ev


def test_pool_starts_at_min_threads():
    env = Environment()
    pool, queue, ctx = make_pool(env)
    assert pool.thread_count == 1


def test_target_formula_matches_paper():
    env = Environment()
    pool, _, _ = make_pool(env, max_threads=9, max_queue_len=450)
    # rho = 9/450 = 0.02 threads per queued record.
    assert pool.target_threads(0) == 1
    assert pool.target_threads(50) == 1
    assert pool.target_threads(100) == 2
    assert pool.target_threads(225) == 5
    assert pool.target_threads(450) == 9
    assert pool.target_threads(10_000) == 9  # clamped at max


def test_pool_grows_under_load_and_shrinks_after():
    env = Environment()
    pool, queue, ctx = make_pool(
        env, max_threads=9, max_queue_len=90, server_delay=0.05
    )
    peak = {"threads": 0}

    def flood(env):
        for i in range(120):
            queue.insert(i, [ext()], [stable_event(env)])
        yield env.timeout(0)

    def watcher(env):
        while True:
            yield env.timeout(0.05)
            peak["threads"] = max(peak["threads"], pool.thread_count)

    env.process(flood(env))
    env.process(watcher(env))
    env.run(until=3.0)
    assert peak["threads"] > 3  # grew with the queue
    env.run(until=30.0)
    assert len(queue) == 0  # everything committed
    assert pool.thread_count == 1  # shrank back to min
    assert pool.retires > 0


def test_samples_record_thread_and_queue_series():
    env = Environment()
    pool, queue, ctx = make_pool(env)

    def trickle(env):
        for i in range(10):
            queue.insert(i, [ext()], [stable_event(env)])
            yield env.timeout(0.05)

    env.process(trickle(env))
    env.run(until=2.0)
    assert len(pool.samples) >= 10
    times = [s[0] for s in pool.samples]
    assert times == sorted(times)
    # Samples carry both series of Fig. 6.
    assert any(s[2] >= 0 for s in pool.samples)


def test_all_ops_committed_despite_retires():
    env = Environment()
    pool, queue, ctx = make_pool(env, server_delay=0.02)

    def bursty(env):
        for burst in range(4):
            for i in range(30):
                queue.insert(burst * 100 + i, [ext()], [stable_event(env)])
            yield env.timeout(1.0)

    env.process(bursty(env))
    env.run(until=20.0)
    assert ctx.stats.ops_committed == 120
    assert len(queue) == 0


def test_stop_halts_everything():
    env = Environment()
    pool, queue, ctx = make_pool(env)
    env.run(until=0.5)
    pool.stop()
    before = env.now
    env.run()  # must terminate: no live controller ticking forever
    assert pool.thread_count == 0


def test_policy_validation():
    env = Environment()
    with pytest.raises(ValueError):
        make_pool(env, max_threads=0)
