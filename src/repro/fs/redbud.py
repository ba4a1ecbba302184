"""The Redbud cluster assembly (Fig. 2).

``config.mds.shards`` metadata servers (the paper's testbed is the
``shards=1`` default: one MDS, ``num_clients`` client nodes, a shared FC
disk array).  Metadata RPCs cross per-client Ethernet links to the MDS
shards; file data goes straight from each client's block queue to the
array.  The three configurations the paper evaluates map to
:class:`~repro.fs.config.ClusterConfig` factory methods:
``original_redbud`` (synchronous commit), ``delayed_commit``, and
``space_delegation_config``.

With ``shards > 1`` the cluster builds a
:class:`~repro.mds.sharding.ShardedMetadataService`: each shard owns a
namespace partition, a disjoint volume slice with its own allocation
groups, its own RPC port/daemon pool/dedup cache/lease GC, and clients
route per-file state (commit batches, delegated space, fence
generations) to the owning shard.  ``shards=1`` is the one-shard case
of the same construction; only its allocator RNG stream keeps the
unsuffixed ``"alloc"`` name, so its block trace matches the single-MDS
golden digests.  Shard state comes from
:func:`~repro.mds.sharding.build_shard_state` and each client node from
:func:`build_client`, as on ``repro serve`` and ``repro smoke``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.mergeratio import aggregate_merge_ratio
from repro.analysis.timeseries import summarize_pool_samples
from repro.client.client import RedbudClient
from repro.core.delegation import DoubleSpacePool
from repro.core.effects import Effects
from repro.fs.base import BaseCluster, RunResult
from repro.fs.config import ClusterConfig
from repro.mds.namespace import Namespace
from repro.mds.server import MetadataServer
from repro.mds.sharding import (
    ShardedMetadataService,
    ShardRouter,
    ShardRoutingTransport,
    build_shard_state,
)
from repro.net.link import Link
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment
from repro.storage.blockdev import BlockDevice
from repro.storage.blktrace import BlkTrace
from repro.storage.cache import PageCache
from repro.storage.disk import DiskArray
from repro.util.rng import StreamRNG

__all__ = ["RedbudCluster", "RunResult", "build_client"]


def build_client(
    env: Effects, config: ClusterConfig, client_id: int, transport: RpcTransport,
    blockdev: _t.Any, router: ShardRouter, rng: StreamRNG,
    witnesses: _t.Optional[_t.Any] = None,
) -> RedbudClient:
    """One Redbud client node as ``config`` describes it.

    The node is the retrying RPC stub (jitter from ``rng``'s
    ``("rpc-retry", client_id)`` stream), one delegation pool per shard
    when space delegation is on, the page cache and the client itself,
    routing per-file state with ``router``.  ``transport`` and
    ``blockdev`` are the substrate's: simulated links and elevator, or
    a live socket and volume file.
    """
    retry_rng = None
    if config.retry is not None:
        retry_rng = rng.stream("rpc-retry", client_id)
    rpc = RpcClient(
        env, client_id, transport, retry=config.retry, retry_rng=retry_rng
    )
    pools = None
    if config.space_delegation:
        chunk = config.delegation_chunk
        pools = {k: DoubleSpacePool(chunk) for k in range(router.num_shards)}
    return RedbudClient(
        env,
        client_id,
        rpc,
        blockdev,
        cache=PageCache(capacity=config.client_cache_capacity),
        commit_mode=config.commit_mode,
        commit_queue_capacity=config.commit_queue_capacity,
        thread_pool_policy=config.thread_pool,
        compound_policy=config.compound,
        fixed_compound_degree=config.fixed_compound_degree,
        dirty_limit=config.dirty_limit,
        degrade_after_timeouts=config.degrade_after_timeouts,
        degrade_backlog=config.degrade_backlog,
        delegation_pools=pools,
        shard_of_file=router.shard_of_file,
        num_shards=router.num_shards,
        witnesses=witnesses,
    )


class RedbudCluster(BaseCluster):
    """Redbud parallel file system on a simulated 8-node testbed."""

    system_name = "redbud"

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 0,
        obs: _t.Optional[_t.Any] = None,
    ) -> None:
        super().__init__(Environment(), seed=seed, obs=obs)
        self.config = config
        env = self.env
        num_shards = config.mds.shards

        self.blktrace = BlkTrace()
        self.array = DiskArray(
            env,
            config.disk,
            self.root_rng.stream("disk"),
            trace=self.blktrace,
        )
        self.router = ShardRouter(num_shards)
        states = [
            build_shard_state(
                k, num_shards, config.disk.volume_size,
                config.num_allocation_groups, config.ag_strategy, self.root_rng,
            )
            for k in range(num_shards)
        ]
        self.array.configure_shards(
            num_shards, config.disk.volume_size // num_shards
        )

        # CURP witnesses (opt-in: ``witness_capacity=0`` builds none and
        # keeps the ordered path only).  They touch no RNG stream.
        self.witnesses = None
        if config.witness_capacity > 0 and config.commit_mode in (
            "delayed", "unordered"
        ):
            from repro.core.witness import WitnessSet

            self.witnesses = WitnessSet(
                env,
                capacity=config.witness_capacity,
                # One fast round trip to the slowest witness: wire
                # propagation out and back plus a small record cost.
                # Deterministic -- no RNG.
                rtt=2 * config.link.propagation + 1e-4,
            )
        self.ports = [RpcServerPort(env) for _ in range(num_shards)]

        self.clients: _t.List[RedbudClient] = []
        self.uplinks: _t.List[Link] = []
        self.downlinks: _t.List[Link] = []
        link = dataclasses.asdict(config.link)
        for cid in range(config.client_nodes):
            uplink = Link(env, name=f"eth-up-{cid}", **link)
            downlink = Link(env, name=f"eth-down-{cid}", **link)
            self.uplinks.append(uplink)
            self.downlinks.append(downlink)
            transport = ShardRoutingTransport(
                env, uplink, downlink, self.ports, self.router
            )
            self.clients.append(
                build_client(
                    env, config, cid, transport,
                    BlockDevice(env, cid, self.array),
                    self.router, self.root_rng, witnesses=self.witnesses,
                )
            )

        self.metadata = ShardedMetadataService(
            [
                MetadataServer(env, config.mds, namespace, space, port)
                for (namespace, space), port in zip(states, self.ports)
            ]
        )
        for k, server in enumerate(self.metadata.servers):
            if server.gc is not None:
                # Storage-side fencing (DESIGN §8): reclaiming a silent
                # client's space also revokes its array write access *on
                # that shard's slice*, so a reclaimed-but-alive client
                # cannot scribble over blocks the shard may already have
                # re-allocated.
                server.gc.on_reclaim = (
                    lambda cid, _k=k: self.array.fence(cid, _k)
                )
                # When the fenced client is next heard from, the
                # (modelled) state-re-establishment handshake stamps its
                # future writes with the current generation; anything it
                # queued before re-admission stays behind the fence.
                server.gc.on_readmit = (
                    lambda cid, _k=k: self._readmit_client(cid, _k)
                )
        if obs is not None:
            from repro.obs.instrument import register_redbud_gauges

            register_redbud_gauges(obs, self)

    @property
    def namespace(self) -> Namespace:
        """Shard 0's namespace, kept while ``perf/simcell.py`` reads it;
        everything else addresses ``metadata.shard(k).namespace``."""
        return self.metadata.shard(0).namespace

    def _readmit_client(self, client_id: int, shard: int) -> None:
        if 0 <= client_id < len(self.clients):
            self.clients[client_id].blockdev.write_generations[shard] = (
                self.array.fence_generations.get((client_id, shard), 0)
            )

    # -- BaseCluster surface ------------------------------------------------------

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    def client_fs(self, index: int) -> RedbudClient:
        return self.clients[index]

    def collect_extras(self) -> _t.Dict[str, _t.Any]:
        merge = aggregate_merge_ratio(
            c.blockdev.scheduler for c in self.clients
        )
        extras: _t.Dict[str, _t.Any] = {
            "merge_stats": merge,
            "merge_ratio": merge.merge_ratio,
            "seek_analysis": self.blktrace.analyze(),
            "array_utilization": self.array.utilization,
            "mds_requests": self.metadata.requests_processed,
            "mds_ops": self.metadata.ops_processed,
            "rpc_messages": sum(link.stats.messages for link in self.uplinks),
            "cache_hits": sum(c.cache.hits for c in self.clients),
            "cache_misses": sum(c.cache.misses for c in self.clients),
        }
        if self.metadata.num_shards > 1:
            extras["mds_shards"] = self.metadata.num_shards
            extras["mds_per_shard"] = self.metadata.per_shard_stats()
        if self.config.retry is not None:
            extras["rpc_retries"] = sum(
                c.rpc.retries for c in self.clients
            )
            extras["rpc_timeouts"] = sum(
                c.rpc.timeouts for c in self.clients
            )
            extras["degraded_writes"] = sum(
                c.degraded_writes for c in self.clients
            )
            extras["mds_restarts"] = self.metadata.restarts
            extras["duplicate_commits_suppressed"] = (
                self.metadata.duplicate_commits_suppressed
            )
            extras["duplicate_requests_suppressed"] = (
                self.metadata.duplicate_requests_suppressed
            )
            gc_bytes = [
                server.gc.bytes_reclaimed_total
                for server in self.metadata.servers
                if server.gc is not None
            ]
            if gc_bytes:
                extras["lease_gc_bytes_reclaimed"] = sum(gc_bytes)
        if self.config.commit_mode in ("delayed", "unordered"):
            extras["pool_samples"] = [
                c.thread_pool.samples for c in self.clients
            ]
            extras["pool_summaries"] = [
                summarize_pool_samples(
                    c.thread_pool.samples,
                    self.config.thread_pool.max_threads,
                )
                for c in self.clients
            ]
            extras["mean_compound_degree"] = _mean(
                c.daemon_ctx.stats.mean_degree
                for c in self.clients
                if c.daemon_ctx.stats.rpcs_sent > 0
            )
            extras["commit_rpcs"] = sum(
                c.daemon_ctx.stats.rpcs_sent for c in self.clients
            )
            extras["ops_committed"] = sum(
                c.daemon_ctx.stats.ops_committed for c in self.clients
            )
        if self.witnesses is not None:
            extras["witnesses"] = self.witnesses.summary()
        return extras

    # -- convenience for experiments ------------------------------------------------

    def apply_cache_recommendation(self, capacity: int) -> None:
        for client in self.clients:
            client.cache.capacity = capacity

    def settle(self, grace: float = 2.0) -> None:
        """Let in-flight background work land (before crash/consistency)."""
        self.env.run(until=self.env.now + grace)


def _mean(values: _t.Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0
