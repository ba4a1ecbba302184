"""Idempotent replay at the MDS: reply cache, commit dedup, crash.

The two suppression layers have different durability by design:

- the per-op commit table is *durable* (journalled with the metadata it
  guards) and must survive an MDS crash/restart;
- the whole-message reply cache is *volatile* and is cleared by a crash,
  so non-idempotent namespace ops must tolerate post-crash re-execution
  (NFS UNCHECKED-create semantics).
"""

from repro.mds.extent import Extent
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    RpcMessage,
)
from repro.core.kernel.events import Event

from tests.conftest import MiniCluster


def make_message(env, payload, kind, xid, client_id=0):
    return RpcMessage(
        kind=kind,
        payload=payload,
        client_id=client_id,
        reply_event=Event(env),
        send_time=env.now,
        xid=xid,
    )


def commit_message(env, file_id, extent, op_id, xid):
    return make_message(
        env,
        CommitPayload(ops=[CommitOp(file_id=file_id, extents=[extent], op_id=op_id)]),
        "commit",
        xid,
    )


def fresh_extent(cluster, length=4096):
    offset = cluster.space.alloc(length, client_id=0)
    return Extent(
        file_offset=0, length=length, device_id=0, volume_offset=offset
    )


def test_retried_commit_op_applies_exactly_once(env):
    cluster = MiniCluster(env)
    meta = cluster.namespace.create("f", 0.0)
    extent = fresh_extent(cluster)

    first = commit_message(env, meta.file_id, extent, op_id=1, xid=1)
    cluster.port.deliver(first)
    env.run(until=0.1)
    assert first.reply_event.value == [True]

    # Same op retried under a different xid (re-compounded after a
    # timeout): must be answered from the durable table, not re-applied
    # (a re-application would hit the defensive rule and return False).
    replay = commit_message(env, meta.file_id, extent, op_id=1, xid=2)
    cluster.port.deliver(replay)
    env.run(until=0.2)
    assert replay.reply_event.value == [True]
    assert cluster.mds.duplicate_commits_suppressed == 1
    assert cluster.mds.commit_apply_counts[(0, 1)] == 1


def test_reply_cache_suppresses_whole_message_replay(env):
    cluster = MiniCluster(env)

    first = make_message(env, CreatePayload(name="a"), "create", xid=7)
    cluster.port.deliver(first)
    env.run(until=0.1)

    retransmit = make_message(env, CreatePayload(name="a"), "create", xid=7)
    cluster.port.deliver(retransmit)
    env.run(until=0.2)

    assert cluster.namespace.creates == 1
    assert cluster.mds.duplicate_requests_suppressed == 1
    assert retransmit.reply_event.value is first.reply_event.value


def test_commit_dedup_survives_mds_crash(env):
    cluster = MiniCluster(env)
    meta = cluster.namespace.create("f", 0.0)
    extent = fresh_extent(cluster)

    first = commit_message(env, meta.file_id, extent, op_id=1, xid=1)
    cluster.port.deliver(first)
    env.run(until=0.1)
    assert first.reply_event.value == [True]

    cluster.mds.crash()
    cluster.mds.restart()
    assert cluster.mds.restarts == 1

    replay = commit_message(env, meta.file_id, extent, op_id=1, xid=2)
    cluster.port.deliver(replay)
    env.run(until=0.2)
    assert replay.reply_event.value == [True]
    assert cluster.mds.duplicate_commits_suppressed == 1
    assert cluster.mds.commit_apply_counts[(0, 1)] == 1


def test_reply_cache_is_volatile_but_create_replay_is_tolerated(env):
    cluster = MiniCluster(env)

    first = make_message(env, CreatePayload(name="a"), "create", xid=7)
    cluster.port.deliver(first)
    env.run(until=0.1)
    created = first.reply_event.value

    cluster.mds.crash()
    cluster.mds.restart()

    # The reply cache died with the server, so the retransmission is
    # re-executed -- and must land on the UNCHECKED-create path instead
    # of erroring out on the existing name.
    retransmit = make_message(env, CreatePayload(name="a"), "create", xid=7)
    cluster.port.deliver(retransmit)
    env.run(until=0.2)
    assert cluster.namespace.creates == 1
    assert retransmit.reply_event.value.file_id == created.file_id


def test_crash_loses_inbox_and_drops_arrivals_while_down(env):
    from repro.mds.server import MdsParameters

    cluster = MiniCluster(env, mds_params=MdsParameters(num_daemons=1))
    env.run(until=0.001)  # start the daemon; it parks on the inbox
    for i in range(4):
        cluster.port.deliver(
            make_message(env, CreatePayload(name=f"f{i}"), "create", xid=i + 1)
        )
    # The first message was handed to the parked daemon (in flight, lost
    # with the server's memory); the other three queue in the inbox.
    lost = cluster.mds.crash()
    assert lost == 3
    assert cluster.mds.requests_lost_in_crashes == 3

    late = make_message(env, CreatePayload(name="late"), "create", xid=9)
    cluster.port.deliver(late)
    assert cluster.port.dropped_while_down == 1

    cluster.mds.restart()
    again = make_message(env, CreatePayload(name="late"), "create", xid=10)
    cluster.port.deliver(again)
    env.run(until=0.1)
    assert again.reply_event.triggered
    assert cluster.namespace.creates == 1
