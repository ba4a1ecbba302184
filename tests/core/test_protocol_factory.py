"""Tests for the protocol strategy factory and mode semantics."""

import pytest

from repro.core.commit_queue import CommitQueue
from repro.core.protocol import (
    COMMIT_MODES,
    DelayedCommitProtocol,
    SynchronousCommitProtocol,
    UnorderedCommitProtocol,
    make_protocol,
)
from repro.net.link import Link
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment


def make_rpc(env):
    port = RpcServerPort(env)
    return RpcClient(env, 0, RpcTransport(env, Link(env), Link(env), port))


def test_factory_maps_modes():
    env = Environment()
    rpc = make_rpc(env)
    queue = CommitQueue(env)
    assert isinstance(
        make_protocol("synchronous", env, rpc, None),
        SynchronousCommitProtocol,
    )
    delayed = make_protocol("delayed", env, rpc, queue)
    assert isinstance(delayed, DelayedCommitProtocol)
    assert delayed.require_data_stable is True
    unordered = make_protocol("unordered", env, rpc, queue)
    assert isinstance(unordered, UnorderedCommitProtocol)
    assert unordered.require_data_stable is False


def test_queue_modes_require_queue():
    env = Environment()
    rpc = make_rpc(env)
    with pytest.raises(ValueError):
        make_protocol("delayed", env, rpc, None)
    with pytest.raises(ValueError):
        make_protocol("unordered", env, rpc, None)


def test_unknown_mode_rejected():
    env = Environment()
    rpc = make_rpc(env)
    with pytest.raises(ValueError):
        make_protocol("eventually", env, rpc, CommitQueue(env))
    assert set(COMMIT_MODES) == {"synchronous", "delayed", "unordered"}


def test_daemon_usage_flags():
    env = Environment()
    rpc = make_rpc(env)
    queue = CommitQueue(env)
    assert not make_protocol("synchronous", env, rpc, None).uses_daemons
    assert make_protocol("delayed", env, rpc, queue).uses_daemons
    assert make_protocol("unordered", env, rpc, queue).uses_daemons


def test_unordered_records_skip_stability_gate():
    from repro.mds.extent import Extent
    from repro.core.kernel.events import Event

    env = Environment()
    rpc = make_rpc(env)
    queue = CommitQueue(env)
    protocol = make_protocol("unordered", env, rpc, queue)
    pending_data = Event(env)  # never completes

    def proc():
        record = yield from protocol.finish_update(
            1,
            [Extent(file_offset=0, length=4096, device_id=0,
                    volume_offset=0)],
            [pending_data],
        )
        return record

    p = env.process(proc())
    record = env.run(until=p)
    assert record.data_stable  # the broken semantics, on purpose
    assert queue.checkout_stable() == [record]
