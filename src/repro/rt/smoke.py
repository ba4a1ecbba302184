"""``repro smoke``: drive a live cluster, then judge its on-disk state.

The smoke run is the end-to-end proof that the effects refactor produced
*one* protocol stack: the simulator's client builder
(:func:`repro.fs.redbud.build_client`) assembles each
:class:`~repro.client.client.RedbudClient` in delayed-commit mode, with
its commit queue, adaptive daemon pool, compound controller and retrying
RPC stub, and it runs here against real ``repro serve`` shard processes
over real TCP, writing real bytes into a shared volume file.

The clients run :class:`~repro.workloads.smoke.SmokeWorkload` through
the simulator's own driver,
:meth:`~repro.fs.base.BaseCluster.start_workload`.  Once every client's
script is done, the clients and then the shards are shut down (each
shard persists its durable state to ``shard-<k>.json``) and
:func:`run_oracles` judges the reloaded dumps (:func:`load_shard`) with
the simulator's oracle panel (:mod:`repro.consistency.panel`), plus the
one rt-only check, ``expectations``: the script's bookkeeping (files
created, sizes written, unlinks) matches the shards' durable namespaces.
"""

from __future__ import annotations

import asyncio
import json
import os
import typing as _t

from repro.client.client import RedbudClient
from repro.consistency.fsck import rebuild_free_space
from repro.consistency.panel import PANEL_KINDS, judge_shards
from repro.fs.base import BaseCluster
from repro.fs.config import ClusterConfig
from repro.fs.redbud import build_client
from repro.mds.allocation import SpaceManager
from repro.mds.extent import Extent
from repro.mds.namespace import FileMeta, Namespace
from repro.mds.sharding import ShardRouter, build_shard_state
from repro.net.rpc import RetryPolicy
from repro.rt.disk import RtBlockDevice, pattern_byte
from repro.rt.effects import AsyncioEffects
from repro.rt.transport import RtClusterTransport, ctl_request
from repro.util.intervals import IntervalSet
from repro.util.rng import StreamRNG
from repro.workloads.smoke import SmokeWorkload

__all__ = [
    "LoadedShard",
    "SmokeConfig",
    "load_shard",
    "run_oracles",
    "run_smoke",
]


class SmokeConfig:
    """Parameters of one smoke run."""

    def __init__(
        self,
        addresses: _t.Sequence[_t.Tuple[str, int]],
        data_dir: str,
        shards: int,
        volume_size: int,
        clients: int = 4,
        files_per_client: int = 6,
        file_size: int = 32 * 1024,
        seed: int = 11,
        compound_degree: int = 4,
        timeout: float = 120.0,
    ) -> None:
        self.addresses = list(addresses)
        self.data_dir = data_dir
        self.shards = shards
        self.volume_size = volume_size
        self.clients = clients
        self.files_per_client = files_per_client
        self.file_size = file_size
        self.seed = seed
        self.compound_degree = compound_degree
        self.timeout = timeout

    @property
    def volume_path(self) -> str:
        return os.path.join(self.data_dir, "volume.img")


class _LiveClients(BaseCluster):
    """The shared workload driver over smoke's live clients."""

    def __init__(
        self, env: AsyncioEffects, clients: _t.List[RedbudClient], seed: int
    ) -> None:
        super().__init__(env, seed)
        self.clients = clients

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def client_fs(self, index: int) -> RedbudClient:
        return self.clients[index]


async def run_smoke(config: SmokeConfig) -> _t.Dict[str, _t.Any]:
    """Run :class:`SmokeWorkload` on live clients, shut the clients and
    shards down, judge the dumps.

    The shards are shut down, and so write their dumps, on every exit
    path: a run that cannot reach a shard, times out or whose client
    fails still ends ``repro serve`` before its error propagates.
    """
    env = AsyncioEffects(asyncio.get_running_loop())
    router = ShardRouter(num_shards=config.shards)
    node = ClusterConfig.delayed_commit(
        num_clients=config.clients,
        fixed_compound_degree=config.compound_degree,
        retry=RetryPolicy(base_timeout=0.5, max_timeout=2.0, max_attempts=30),
    )
    rng = StreamRNG(config.seed)
    blockdev: _t.Optional[RtBlockDevice] = None
    transport: _t.Optional[RtClusterTransport] = None
    try:
        blockdev = RtBlockDevice(env, config.volume_path, config.volume_size)
        transport = await RtClusterTransport.connect(
            env, config.addresses, router
        )
        clients = [
            build_client(env, node, client_id, transport, blockdev, router, rng)
            for client_id in range(1, config.clients + 1)
        ]
        run = _LiveClients(env, clients, config.seed).start_workload(
            SmokeWorkload(config.files_per_client, config.file_size)
        )

        async def script_then_shutdown() -> None:
            await env.wait(env.all_of(run.setups))
            await env.wait(
                env.all_of([env.process(c.shutdown()) for c in clients])
            )

        await asyncio.wait_for(script_then_shutdown(), config.timeout)
        env.check_failures()
        stats = [
            await ctl_request(host, port, {"op": "stats"})
            for host, port in config.addresses
        ]
    finally:
        replies = [await _shut_down(*address) for address in config.addresses]
        if transport is not None:
            await transport.aclose()
        if blockdev is not None:
            blockdev.close()
    for reply in replies:
        if not reply.get("ok"):
            raise RuntimeError(f"shard shutdown failed: {reply!r}")
    dumps = []
    for shard in range(config.shards):
        dump_path = os.path.join(config.data_dir, f"shard-{shard}.json")
        with open(dump_path) as handle:
            dumps.append(json.load(handle))

    expectations = run.contexts[0].shared["expect"] if clients else {}
    report = run_oracles(dumps, config.volume_path, expectations, config)
    report["shard_stats"] = stats
    report["transport_stats"] = dict(
        transport.wire.as_dict(),
        requests_sent=transport.requests_sent,
        replies_received=transport.replies_received,
        unmatched_replies=transport.unmatched_replies,
    )
    report["kernel_stats"] = env.kernel_stats()
    report["client_stats"] = [
        {
            "client_id": client.client_id,
            "writes": client.writes,
            "bytes_written": client.bytes_written,
            "rpc_calls": client.rpc.calls_sent,
            "rpc_retries": client.rpc.retries,
            "rpc_timeouts": client.rpc.timeouts,
            "degraded_writes": client.degraded_writes,
        }
        for client in clients
    ]
    return report


async def _shut_down(host: str, port: int) -> _t.Dict[str, _t.Any]:
    """Ask one shard to dump and exit; a failure to ask is its reply."""
    try:
        return await ctl_request(host, port, {"op": "shutdown"})
    except Exception as exc:  # e.g. the shard has already exited
        return {"ok": False, "error": repr(exc)}


class _ApplyCounts(_t.NamedTuple):
    """The dump's ``[client, op, count]`` rows, read like the MDS's dict
    (a dict of tuple keys adds ~1 MiB to ``rt-commit``'s peak RSS)."""

    rows: _t.List[_t.List[int]]

    def items(self) -> _t.Iterator[_t.Tuple[_t.Tuple[int, int], int]]:
        return (((client, op), count) for client, op, count in self.rows)


class LoadedShard(_t.NamedTuple):
    """A shard dump as a shard state of the oracle panel."""

    namespace: Namespace
    space: SpaceManager
    commit_apply_counts: _ApplyCounts
    oplog: _t.List[_t.Any]


def load_shard(
    dump: _t.Dict[str, _t.Any],
) -> _t.Tuple[LoadedShard, _t.Optional[str]]:
    """One shard's dump back as durable state, plus any fsck problem.

    The shard's state is rebuilt with the allocator geometry the dump
    records; its space is the allocator :func:`rebuild_free_space`
    derives from the committed namespace.  A namespace that does not
    rebuild keeps the slice's empty allocator and reports why.
    """
    shard = dump["shard"]
    namespace, space = build_shard_state(
        shard, dump["shards"], dump["volume_size"],
        dump["num_groups"], dump["strategy"], StreamRNG(0),
    )
    for entry in dump["files"]:
        # A dumped file carries exactly FileMeta's fields.
        extents = [Extent(*extent) for extent in entry["extents"]]
        meta = FileMeta(**dict(entry, extents=extents))
        namespace._files[meta.file_id] = meta
        namespace._by_name[meta.name] = meta.file_id
    problem = None
    try:
        space = rebuild_free_space(namespace, space)
    except ValueError as exc:
        problem = f"shard {shard}: rebuild failed: {exc}"
    counts = _ApplyCounts(dump["commit_apply_counts"])
    return LoadedShard(namespace, space, counts, dump["oplog"]), problem


def run_oracles(
    dumps: _t.Sequence[_t.Dict[str, _t.Any]],
    volume_path: str,
    expectations: _t.Dict[int, int],
    config: SmokeConfig,
) -> _t.Dict[str, _t.Any]:
    """The oracle panel plus ``expectations`` over persisted shard state."""
    loaded = [load_shard(dump) for dump in dumps]
    shards = [shard for shard, _ in loaded]
    sizes: _t.Dict[int, int] = {}
    committed, stable = IntervalSet(), IntervalSet()
    # A committed extent is stable iff every byte of it holds its file's
    # pattern: its data was durable before its commit.  A missing volume
    # reads as empty, so every extent dangles.
    if not os.path.exists(volume_path):
        volume_path = os.devnull
    with open(volume_path, "rb") as volume:
        for shard in shards:
            for meta in shard.namespace.all_files():
                sizes[meta.file_id] = meta.size
                want = pattern_byte(meta.file_id)
                for extent in meta.extents:
                    lo, hi = extent.volume_offset, extent.volume_end
                    committed.add(lo, hi)
                    volume.seek(lo)
                    if volume.read(hi - lo).count(want) == hi - lo:
                        stable.add(lo, hi)

    verdict = judge_shards(shards, stable, config.volume_size)
    oracles: _t.Dict[str, _t.List[str]] = {
        kind: [] for kind in PANEL_KINDS + ("expectations",)
    }
    oracles["fsck"].extend(problem for _, problem in loaded if problem)
    for kind, detail in verdict.violations:
        oracles[kind].append(detail)
    for file_id, size in sorted(expectations.items()):
        if file_id not in sizes:
            oracles["expectations"].append(
                f"file {file_id} committed by a client but absent "
                "from every shard dump"
            )
        elif sizes[file_id] != size:
            oracles["expectations"].append(
                f"file {file_id} persisted size {sizes[file_id]}, "
                f"client expected {size}"
            )
    for file_id in sorted(sizes.keys() - expectations.keys()):
        oracles["expectations"].append(
            f"file {file_id} persisted but never expected "
            "(unlinked or foreign)"
        )

    violations = sum(len(v) for v in oracles.values())
    return {
        "ok": violations == 0,
        "violations": violations,
        "oracles": oracles,
        "summaries": verdict.summaries,
        "files_persisted": len(sizes),
        "files_expected": len(expectations),
        "committed_bytes": committed.total(),
        "config": {
            "shards": config.shards,
            "clients": config.clients,
            "files_per_client": config.files_per_client,
            "file_size": config.file_size,
            "seed": config.seed,
        },
    }
