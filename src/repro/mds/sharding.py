"""Sharded metadata service: N independent MDS instances behind a router.

The paper's Delayed Commit Protocol is defined against a single
metadata server.  Scaling it out keeps the protocol untouched and
partitions the *state* instead: shard ``k`` of ``N`` owns

- a namespace slice (file ids ``k+1, k+1+N, k+1+2N, ...`` -- an
  arithmetic progression, so the owner of any file id is recoverable
  as ``(file_id - 1) % N`` with no directory lookup),
- a disjoint volume slice ``[k * volume_size // N, (k+1) * ...)``
  with its own allocation groups,
- its own RPC port, daemon pool, commit dedup cache, and lease GC.

Ordered writes are a per-file property, and a file lives entirely on
one shard, so commits against different shards proceed independently
without weakening the paper's consistency argument.  Cross-shard state
is *provably* disjoint -- :func:`check_shard_disjointness` is the
oracle's new invariant.

Routing is deterministic and client-side: creates route by a stable
hash of the file name, every other operation by the file id's owner
shard.  Retransmitted RPCs reuse the same message and therefore the
same shard, preserving server-side dedup.
"""

from __future__ import annotations

import typing as _t

from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MetadataServer
from repro.net.messages import (
    CommitPayload,
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    ReleasePayload,
    RpcMessage,
    UnlinkPayload,
)
from repro.net.rpc import RpcTransport
from repro.util.intervals import IntervalSet
from repro.util.rng import StreamRNG

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.rpc import RpcServerPort
    from repro.core.effects import Effects

__all__ = [
    "ShardRouter",
    "ShardRoutingTransport",
    "ShardedMetadataService",
    "build_shard_state",
    "check_shard_disjointness",
    "fnv1a_64",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a: stable across processes and Python versions.

    ``hash(str)`` is salted per interpreter (PYTHONHASHSEED), so it can
    never be a routing function in a deterministic simulator.
    """
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return acc


class ShardRouter:
    """Deterministic file-handle -> shard mapping.

    A create goes to ``fnv1a_64(name) % num_shards``; the file-id
    progression (see module docstring) makes :meth:`shard_of_file` pure
    arithmetic.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.num_shards = num_shards

    def shard_for_name(self, name: str) -> int:
        """Placement decision for a new file handle."""
        return fnv1a_64(name.encode("utf-8")) % self.num_shards

    def shard_of_file(self, file_id: int) -> int:
        """Owner shard of an existing file id."""
        return (file_id - 1) % self.num_shards

    def shard_for_message(self, message: RpcMessage) -> int:
        """Destination shard of an outbound RPC."""
        if self.num_shards == 1:
            # The paper's one MDS: nothing to decide, so no per-RPC
            # name hash on the default configuration's hot path.
            return 0
        payload = message.payload
        if isinstance(payload, CreatePayload):
            return self.shard_for_name(payload.name)
        if isinstance(
            payload, (GetattrPayload, LayoutGetPayload, UnlinkPayload)
        ):
            return self.shard_of_file(payload.file_id)
        if isinstance(payload, CommitPayload):
            # The commit daemon batches per shard, so one op's owner
            # speaks for the whole compound.
            return self.shard_of_file(payload.ops[0].file_id)
        if isinstance(payload, (DelegationPayload, ReleasePayload)):
            return payload.shard
        raise TypeError(
            f"cannot route payload type {type(payload).__name__}"
        )


def build_shard_state(
    shard: int, shards: int, volume_size: int, num_groups: int, strategy: str,
    rng: StreamRNG,
) -> _t.Tuple[Namespace, SpaceManager]:
    """Shard ``shard`` of ``shards``: its empty namespace and allocator.

    The one place a shard's state is built: the simulated cluster, a
    live ``repro serve`` shard and the smoke loader of its dump call it.
    The namespace hands out the ids :meth:`ShardRouter.shard_of_file`
    maps back to this shard; the allocator owns the shard's slice of a
    ``volume_size``-byte volume in ``num_groups`` groups.  Its stream of
    ``rng`` is ``("alloc", shard)``, except that the paper's one MDS
    keeps the unsuffixed ``("alloc",)``.
    """
    slice_size = volume_size // shards
    key = ("alloc", shard) if shards > 1 else ("alloc",)
    return (
        Namespace(first_id=shard + 1, id_step=shards),
        SpaceManager(
            volume_size=slice_size,
            num_groups=num_groups,
            strategy=strategy,
            rng=rng.stream(*key),
            base_offset=shard * slice_size,
        ),
    )


class ShardRoutingTransport(RpcTransport):
    """Client-side transport fanning one uplink out to N shard ports.

    An :class:`~repro.net.rpc.RpcTransport` whose requests go to the
    destination shard's port; replies travel the inherited path.  The
    wire model is unchanged -- one NIC per client, shared by all shard
    conversations, exactly like the single-MDS transport.
    """

    def __init__(
        self,
        env: "Effects",
        uplink: "Link",
        downlink: "Link",
        ports: _t.Sequence["RpcServerPort"],
        router: ShardRouter,
    ) -> None:
        if len(ports) != router.num_shards:
            raise ValueError(
                f"{len(ports)} ports for {router.num_shards} shards"
            )
        # No single ``port``: the methods that would read it are overridden.
        self.env = env
        self.uplink = uplink
        self.downlink = downlink
        self.ports = list(ports)
        self.router = router

    def register_client(self, client_id: int) -> None:
        """Attach this client's reply path on every shard port."""
        for port in self.ports:
            port.register(client_id, self)

    def send_request(self, message: RpcMessage) -> None:
        port = self.ports[self.router.shard_for_message(message)]
        delivery = self.uplink.send(message.request_size())
        delivery.callbacks.append(
            lambda _ev, msg=message, p=port: p.deliver(msg)
        )


class ShardedMetadataService:
    """Owns the shard servers and aggregates their state for the cluster.

    The cluster-facing API mirrors a single :class:`MetadataServer`
    closely enough that observability gauges and the fault injector do
    not care how many shards exist; anything genuinely per-shard is
    reachable through :meth:`shard` / iteration.
    """

    def __init__(self, servers: _t.Sequence[MetadataServer]) -> None:
        self.servers = list(servers)

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    def shard(self, index: int) -> MetadataServer:
        return self.servers[index]

    def __iter__(self) -> _t.Iterator[MetadataServer]:
        return iter(self.servers)

    # -- fault surface ------------------------------------------------------

    def crash(self, shard: _t.Optional[int] = None) -> int:
        """Crash one shard (or all of them); returns requests lost."""
        targets = (
            self.servers if shard is None else [self.servers[shard]]
        )
        return sum(server.crash() for server in targets)

    def restart(self, shard: _t.Optional[int] = None) -> None:
        targets = (
            self.servers if shard is None else [self.servers[shard]]
        )
        for server in targets:
            server.restart()

    def set_commit_dedup_enabled(self, enabled: bool) -> None:
        """Fan the seeded-bug switch out to every shard."""
        for server in self.servers:
            server.commit_dedup_enabled = enabled

    # -- aggregated stats ---------------------------------------------------

    def _sum(self, attr: str) -> int:
        return sum(getattr(server, attr) for server in self.servers)

    @property
    def requests_processed(self) -> int:
        return self._sum("requests_processed")

    @property
    def ops_processed(self) -> int:
        return self._sum("ops_processed")

    @property
    def restarts(self) -> int:
        return self._sum("restarts")

    @property
    def duplicate_commits_suppressed(self) -> int:
        return self._sum("duplicate_commits_suppressed")

    @property
    def duplicate_requests_suppressed(self) -> int:
        return self._sum("duplicate_requests_suppressed")

    @property
    def queue_length(self) -> int:
        return sum(server.queue_length for server in self.servers)

    @property
    def utilization(self) -> float:
        if not self.servers:
            return 0.0
        return max(server.utilization for server in self.servers)

    def per_shard_stats(self) -> _t.List[_t.Dict[str, _t.Any]]:
        """One record per shard for reporting (``collect_extras``)."""
        return [
            {
                "shard": index,
                "mds_requests": server.requests_processed,
                "mds_ops": server.ops_processed,
                "mds_restarts": server.restarts,
                "files": len(server.namespace),
                "free_bytes": server.space.free_bytes,
                # Service-time tails (seconds) from the shard's own
                # log-bucketed histogram -- the per-shard view the SLO
                # layer reports (DESIGN §12).
                "svc_p50": server.service_hist.quantile(0.50),
                "svc_p99": server.service_hist.quantile(0.99),
                "svc_p999": server.service_hist.quantile(0.999),
            }
            for index, server in enumerate(self.servers)
        ]


def check_shard_disjointness(
    shards: _t.Sequence[_t.Tuple[Namespace, SpaceManager]],
    volume_size: int,
) -> _t.List[str]:
    """The cross-shard invariant: shard state never overlaps.

    Verifies (1) the volume slices themselves are disjoint and
    in-bounds, (2) every file lives on its owner shard
    ``(file_id - 1) % N``, (3) every committed extent and every tracked
    uncommitted range of a shard lies inside that shard's slice, and
    (4) no volume byte is claimed committed by two shards.  Returns
    human-readable violation details; empty means disjoint.
    """
    violations: _t.List[str] = []
    slices = IntervalSet()
    for index, (_, space) in enumerate(shards):
        lo, hi = space.base_offset, space.base_offset + space.volume_size
        if lo < 0 or hi > volume_size:
            violations.append(
                f"shard {index} slice [{lo}, {hi}) exceeds the "
                f"{volume_size}-byte volume"
            )
        if slices.overlaps(lo, hi):
            violations.append(
                f"shard {index} slice [{lo}, {hi}) overlaps another "
                "shard's slice"
            )
        slices.add(lo, hi)

    committed = IntervalSet()
    for index, (namespace, space) in enumerate(shards):
        lo, hi = space.base_offset, space.base_offset + space.volume_size
        for meta in namespace.all_files():
            owner = (meta.file_id - 1) % len(shards)
            if owner != index:
                violations.append(
                    f"file {meta.file_id} ({meta.name!r}) lives on "
                    f"shard {index}, its owner is shard {owner}"
                )
        for offset, length in namespace.all_committed_ranges():
            if offset < lo or offset + length > hi:
                violations.append(
                    f"shard {index} committed extent "
                    f"[{offset}, {offset + length}) escapes its slice "
                    f"[{lo}, {hi})"
                )
            if committed.overlaps(offset, offset + length):
                violations.append(
                    f"volume range [{offset}, {offset + length}) is "
                    f"claimed committed by shard {index} and another "
                    "shard"
                )
            committed.add(offset, offset + length)
        for client_ranges in space._uncommitted.values():
            for start, end in client_ranges:
                if start < lo or end > hi:
                    violations.append(
                        f"shard {index} uncommitted range "
                        f"[{start}, {end}) escapes its slice "
                        f"[{lo}, {hi})"
                    )
    return violations
