"""The MDS's defensive commit rule under races.

Delete/commit and overwrite/commit races are normal life for delayed
commit; the MDS must stay sound (no double frees, no resurrected
extents) no matter the arrival order.
"""

import pytest

from repro.mds.allocation import SpaceManager
from repro.mds.extent import Extent
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.net.link import Link
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    LayoutGetPayload,
    UnlinkPayload,
)
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment


class Stack:
    def __init__(self, num_clients=2):
        self.env = Environment()
        self.port = RpcServerPort(self.env)
        self.clients = {
            c: RpcClient(
                self.env,
                c,
                RpcTransport(self.env, Link(self.env), Link(self.env), self.port),
            )
            for c in range(num_clients)
        }
        self.space = SpaceManager(
            volume_size=1 << 30, num_groups=4, cursor_align=0
        )
        self.mds = MetadataServer(
            self.env,
            MdsParameters(num_daemons=2),
            Namespace(),
            self.space,
            self.port,
        )

    def call(self, client, kind, payload):
        box = {}

        def proc():
            box["v"] = yield self.clients[client].call(kind, payload)

        self.env.process(proc())
        self.env.run()
        return box["v"]


def test_commit_after_unlink_reclaims_fresh_space_only():
    s = Stack()
    meta = s.call(0, "create", CreatePayload(name="f"))
    reply = s.call(
        0,
        "layout_get",
        LayoutGetPayload(file_id=meta.file_id, offset=0, length=4096,
                         allocate=True),
    )
    extent = reply.extents[0]
    s.call(0, "unlink", UnlinkPayload(file_id=meta.file_id))
    # The late commit of the already-unlinked file is dropped; its fresh
    # allocation is reclaimed exactly once.
    free_before = s.space.free_bytes
    results = s.call(
        0,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[extent])]),
    )
    assert results == [False]
    assert s.space.free_bytes == free_before + 4096
    assert s.space.uncommitted_bytes() == 0
    s.space.check_invariants()


def test_in_place_recommit_is_a_noop():
    s = Stack()
    meta = s.call(0, "create", CreatePayload(name="f"))
    reply = s.call(
        0,
        "layout_get",
        LayoutGetPayload(file_id=meta.file_id, offset=0, length=4096,
                         allocate=True),
    )
    extent = reply.extents[0]
    s.call(
        0,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[extent])]),
    )
    free_after_first = s.space.free_bytes
    # Re-commit the same mapping (in-place data rewrite).
    s.call(
        0,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[extent])]),
    )
    assert s.space.free_bytes == free_after_first  # nothing freed/leaked
    committed = s.mds.namespace.get(meta.file_id)
    assert committed.committed_bytes() == 4096
    s.space.check_invariants()


def test_stale_commit_after_displacement_dropped():
    """Client A's mapping is displaced by client B's overwrite; A's late
    re-commit must not resurrect the freed extent."""
    s = Stack()
    meta = s.call(0, "create", CreatePayload(name="f"))
    ra = s.call(
        0,
        "layout_get",
        LayoutGetPayload(file_id=meta.file_id, offset=0, length=4096,
                         allocate=True),
    )
    ea = ra.extents[0]
    s.call(
        0,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[ea])]),
    )
    # Client 1 overwrites the same file range with fresh space from its
    # delegated chunk (the delegation write path always places new data
    # in fresh local space).
    from repro.net.messages import DelegationPayload

    chunk = s.call(1, "delegate", DelegationPayload(chunk_size=65536))
    eb = Extent(
        file_offset=0,
        length=4096,
        device_id=0,
        volume_offset=chunk.volume_offset,
    )
    s.call(
        1,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[eb])]),
    )
    stale_before = s.mds.stale_commits
    # Client 0 replays its old mapping (e.g. an in-place rewrite attempt
    # through a stale layout): dropped as stale.
    s.call(
        0,
        "commit",
        CommitPayload(ops=[CommitOp(file_id=meta.file_id, extents=[ea])]),
    )
    assert s.mds.stale_commits == stale_before + 1
    current = s.mds.namespace.get(meta.file_id).extents
    assert [e.volume_offset for e in current] == [eb.volume_offset]
    # Unlink at the end frees exactly the live extent; no double free.
    # Client 1 still legitimately holds the rest of its delegated chunk.
    s.call(0, "unlink", UnlinkPayload(file_id=meta.file_id))
    remainder = s.space.uncommitted_bytes(1)
    assert remainder == 65536 - 4096
    assert s.space.free_bytes == s.space.volume_size - remainder
    s.space.check_invariants()


def test_double_unlink_is_harmless():
    s = Stack()
    meta = s.call(0, "create", CreatePayload(name="f"))
    s.call(0, "unlink", UnlinkPayload(file_id=meta.file_id))
    s.call(0, "unlink", UnlinkPayload(file_id=meta.file_id))
    assert s.space.free_bytes == s.space.volume_size


def test_mapping_matches_partial_and_mismatch():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    e = Extent(file_offset=0, length=8192, device_id=0, volume_offset=100)
    ns.commit_extents(meta.file_id, [e], now=1.0)
    # Exact and sub-range matches.
    assert ns.mapping_matches(meta.file_id, e)
    sub = Extent(file_offset=4096, length=4096, device_id=0,
                 volume_offset=100 + 4096)
    assert ns.mapping_matches(meta.file_id, sub)
    # Wrong volume.
    wrong = Extent(file_offset=0, length=8192, device_id=0,
                   volume_offset=999_424)
    assert not ns.mapping_matches(meta.file_id, wrong)
    # Hole.
    beyond = Extent(file_offset=4096, length=8192, device_id=0,
                    volume_offset=100 + 4096)
    assert not ns.mapping_matches(meta.file_id, beyond)
    # Unknown file.
    assert not ns.mapping_matches(999, e)
