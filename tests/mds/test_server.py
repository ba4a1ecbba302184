"""Tests for the metadata server daemon model and operation semantics."""

import pytest

from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.net.link import Link
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    ReleasePayload,
    UnlinkPayload,
)
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment


def make_mds(env, num_daemons=2, num_clients=2, **param_kw):
    port = RpcServerPort(env)
    clients = {
        cid: RpcClient(env, cid, RpcTransport(env, Link(env), Link(env), port))
        for cid in range(num_clients)
    }
    params = MdsParameters(num_daemons=num_daemons, **param_kw)
    mds = MetadataServer(
        env,
        params,
        Namespace(),
        SpaceManager(volume_size=1 << 30, num_groups=4),
        port,
    )
    return mds, clients


def run_call(env, client, kind, payload):
    box = {}

    def caller(env):
        box["reply"] = yield client.call(kind, payload)

    env.process(caller(env))
    env.run()
    return box.get("reply")


def test_create_via_rpc():
    env = Environment()
    mds, clients = make_mds(env)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f1"))
    assert meta.name == "f1"
    assert mds.namespace.lookup("f1").file_id == meta.file_id
    assert mds.requests_processed == 1


def test_layout_get_allocates_holes():
    env = Environment()
    mds, clients = make_mds(env)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f"))
    reply = run_call(
        env,
        clients[0],
        "layout_get",
        LayoutGetPayload(
            file_id=meta.file_id, offset=0, length=8192, allocate=True
        ),
    )
    assert len(reply.extents) == 1
    extent = reply.extents[0]
    assert extent.length == 8192
    assert extent.state == "new"
    assert reply.chunk is None
    # Allocation is tracked as uncommitted until the commit arrives.
    assert mds.space.uncommitted_bytes(0) == 8192


def test_layout_get_returns_committed_without_alloc():
    env = Environment()
    mds, clients = make_mds(env)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f"))
    reply = run_call(
        env,
        clients[0],
        "layout_get",
        LayoutGetPayload(
            file_id=meta.file_id, offset=0, length=4096, allocate=True
        ),
    )
    extent = reply.extents[0]
    run_call(
        env,
        clients[0],
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[extent])]),
    )
    reply2 = run_call(
        env,
        clients[0],
        "layout_get",
        LayoutGetPayload(file_id=meta.file_id, offset=0, length=4096),
    )
    assert len(reply2.extents) == 1
    assert reply2.extents[0].state == "committed"
    assert reply2.extents[0].volume_offset == extent.volume_offset
    assert mds.space.uncommitted_bytes() == 0


def test_delegation_hint_rides_on_layout_get():
    env = Environment()
    mds, clients = make_mds(env, delegation_chunk=1 << 20)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f"))
    reply = run_call(
        env,
        clients[0],
        "layout_get",
        LayoutGetPayload(
            file_id=meta.file_id,
            offset=0,
            length=4096,
            allocate=True,
            delegation_hint=True,
        ),
    )
    assert reply.chunk is not None
    assert reply.chunk.length == 1 << 20


def test_explicit_delegation():
    env = Environment()
    mds, clients = make_mds(env)
    chunk = run_call(
        env, clients[1], "delegate", DelegationPayload(chunk_size=65536)
    )
    assert chunk.length == 65536
    assert mds.space.uncommitted_bytes(1) == 65536


def test_release_returns_chunk():
    env = Environment()
    mds, clients = make_mds(env)
    chunk = run_call(
        env, clients[0], "delegate", DelegationPayload(chunk_size=65536)
    )
    free_before = mds.space.free_bytes
    run_call(
        env,
        clients[0],
        "release",
        ReleasePayload(chunks=[(chunk.volume_offset, chunk.length)]),
    )
    assert mds.space.free_bytes == free_before + 65536
    assert mds.space.uncommitted_bytes(0) == 0


def test_compound_commit_applies_all_ops():
    env = Environment()
    mds, clients = make_mds(env)
    metas = [
        run_call(env, clients[0], "create", CreatePayload(name=f"f{i}"))
        for i in range(3)
    ]
    extents = {}
    for meta in metas:
        reply = run_call(
            env,
            clients[0],
            "layout_get",
            LayoutGetPayload(
                file_id=meta.file_id, offset=0, length=4096, allocate=True
            ),
        )
        extents[meta.file_id] = reply.extents
    results = run_call(
        env,
        clients[0],
        "commit",
        CommitPayload(
            ops=[
                CommitOp(file_id=m.file_id, extents=extents[m.file_id])
                for m in metas
            ]
        ),
    )
    assert results == [True, True, True]
    for meta in metas:
        assert mds.namespace.get(meta.file_id).committed_bytes() == 4096
    assert mds.ops_processed >= 3


def test_unlink_frees_space():
    env = Environment()
    mds, clients = make_mds(env)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f"))
    reply = run_call(
        env,
        clients[0],
        "layout_get",
        LayoutGetPayload(
            file_id=meta.file_id, offset=0, length=4096, allocate=True
        ),
    )
    run_call(
        env,
        clients[0],
        "commit",
        CommitPayload(
            ops=[CommitOp(file_id=meta.file_id, extents=reply.extents)]
        ),
    )
    free_before = mds.space.free_bytes
    run_call(env, clients[0], "unlink", UnlinkPayload(file_id=meta.file_id))
    assert mds.space.free_bytes == free_before + 4096


def test_getattr():
    env = Environment()
    mds, clients = make_mds(env)
    meta = run_call(env, clients[0], "create", CreatePayload(name="f"))
    got = run_call(
        env, clients[0], "getattr", GetattrPayload(file_id=meta.file_id)
    )
    assert got.file_id == meta.file_id


def test_single_daemon_serialises_requests():
    """With one daemon, service times add; with many they overlap."""

    def total_time(num_daemons):
        env = Environment()
        mds, clients = make_mds(
            env, num_daemons=num_daemons, svc_message=0.001, svc_op=0.001
        )
        done = []

        def caller(env, name):
            yield clients[0].call("create", CreatePayload(name=name))
            done.append(env.now)

        for i in range(8):
            env.process(caller(env, f"f{i}"))
        env.run(until=10.0)
        assert len(done) == 8
        return max(done)

    assert total_time(1) > total_time(8) * 1.5


def test_contention_slows_parallel_daemons():
    """Contention factor makes highly parallel MDS slightly slower per op."""

    def busy_time(num_daemons, contention):
        env = Environment()
        mds, clients = make_mds(
            env,
            num_daemons=num_daemons,
            contention_factor=contention,
            svc_message=0.001,
            svc_op=0.001,
        )

        def caller(env, name):
            yield clients[0].call("create", CreatePayload(name=name))

        for i in range(16):
            env.process(caller(env, f"f{i}"))
        env.run(until=30.0)
        return mds.busy_time

    assert busy_time(16, 0.1) > busy_time(16, 0.0)


def test_queue_length_visible():
    env = Environment()
    mds, clients = make_mds(env, num_daemons=1, svc_message=0.01)

    def caller(env, name):
        yield clients[0].call("create", CreatePayload(name=name))

    for i in range(5):
        env.process(caller(env, f"f{i}"))
    env.run(until=0.005)
    # First request in service, some still queued.
    assert mds.queue_length >= 1
    env.run(until=10.0)
    assert mds.queue_length == 0
