"""``repro smoke``: drive a live cluster, then audit its on-disk state.

The smoke run is the end-to-end proof that the effects refactor produced
*one* protocol stack: the exact client assembly the simulator builds --
:class:`~repro.client.client.RedbudClient` in delayed-commit mode, with
its commit queue, adaptive daemon pool, compound controller and retrying
RPC stub -- runs here against real ``repro serve`` shard processes over
real TCP, writing real bytes into a shared volume file.

After the workload drains, the shards are shut down (each persists its
durable state to ``shard-<k>.json``) and the oracle subset runs on what
hit disk:

``exactly_once``
    Every ``(client, op_id)`` commit applied exactly once -- the §III
    duplicate-suppression guarantee, exercised for real when the server
    runs with ``--drop-every`` (forced retransmissions).
``shard_ownership``
    Every file id lives in its arithmetic residue class; every extent
    inside its shard's volume slice.
``disjointness``
    No volume byte claimed committed by two extents anywhere.
``fsck``
    The committed namespace rebuilds into a clean allocator
    (:func:`repro.consistency.fsck.fsck` on reconstructed state).
``data_pattern``
    The volume file holds each file's deterministic pattern across every
    committed extent: data was durable before its commit -- the paper's
    ordered-write invariant verified on real sockets and a real file.
``expectations``
    Client-side bookkeeping (files created, sizes written, unlinks)
    matches the server's durable namespace.
"""

from __future__ import annotations

import asyncio
import json
import os
import typing as _t

from repro.client.client import RedbudClient
from repro.consistency.fsck import fsck, rebuild_free_space
from repro.mds.allocation import SpaceManager
from repro.mds.extent import Extent
from repro.mds.namespace import FileMeta, Namespace
from repro.mds.sharding import ShardRouter
from repro.net.rpc import RetryPolicy, RpcClient
from repro.rt.disk import RtBlockDevice, pattern_byte
from repro.rt.effects import AsyncioEffects
from repro.rt.transport import RtClusterTransport, ctl_request
from repro.util.intervals import IntervalSet
from repro.util.rng import StreamRNG

__all__ = ["SmokeConfig", "run_smoke", "run_oracles"]


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


def _workload(
    client: RedbudClient,
    config: SmokeConfig,
    expect: _t.Dict[int, int],
) -> _t.Generator:
    """One client's script: create, write, overwrite, fsync, unlink."""
    file_ids: _t.List[int] = []
    size = config.file_size
    for index in range(config.files_per_client):
        name = f"c{client.client_id}-f{index}"
        file_id = yield from client.create(name)
        file_ids.append(file_id)
        yield from client.write(file_id, 0, size)
        expect[file_id] = size
        if index % 3 == 0:
            # Overwrite the first half: exercises extent displacement
            # and the defensive in-place commit rule on a live server.
            yield from client.write(file_id, 0, size // 2)
        yield from client.fsync(file_id)
    for index, file_id in enumerate(file_ids):
        if index % 4 == 3:
            yield from client.unlink(file_id)
            del expect[file_id]
    yield from client.shutdown()


async def run_smoke(config: SmokeConfig) -> _t.Dict[str, _t.Any]:
    """Drive the workload, shut the shards down, audit the dumps."""
    env = AsyncioEffects(asyncio.get_running_loop())
    router = ShardRouter(num_shards=config.shards)
    blockdev = RtBlockDevice(
        env, config.volume_path, config.volume_size
    )
    transport = await RtClusterTransport.connect(
        env, config.addresses, router
    )
    rng = StreamRNG(config.seed)
    expectations: _t.Dict[int, int] = {}
    clients: _t.List[RedbudClient] = []
    try:
        for client_id in range(1, config.clients + 1):
            rpc = RpcClient(
                env,
                client_id,
                transport,
                retry=RetryPolicy(
                    base_timeout=0.5,
                    max_timeout=2.0,
                    max_attempts=30,
                ),
                retry_rng=rng.stream("retry", client_id),
            )
            clients.append(
                RedbudClient(
                    env,
                    client_id,
                    rpc,
                    blockdev,
                    commit_mode="delayed",
                    fixed_compound_degree=config.compound_degree,
                    shard_of_file=router.shard_of_file,
                    num_shards=config.shards,
                )
            )
        procs = [
            env.process(
                _workload(client, config, expectations),
                name=f"smoke-client-{client.client_id}",
            )
            for client in clients
        ]
        await asyncio.wait_for(
            env.wait(env.all_of(procs)), config.timeout
        )
        env.check_failures()

        stats = []
        for host, port in config.addresses:
            stats.append(
                await ctl_request(host, port, {"op": "stats"})
            )
        dumps = []
        for host, port in config.addresses:
            reply = await ctl_request(host, port, {"op": "shutdown"})
            if not reply.get("ok"):
                raise RuntimeError(f"shard shutdown failed: {reply!r}")
        for shard in range(config.shards):
            dump_path = os.path.join(
                config.data_dir, f"shard-{shard}.json"
            )
            with open(dump_path) as handle:
                dumps.append(json.load(handle))
    finally:
        await transport.aclose()
        blockdev.close()

    report = run_oracles(
        dumps, config.volume_path, expectations, config
    )
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


def run_oracles(
    dumps: _t.Sequence[_t.Dict[str, _t.Any]],
    volume_path: str,
    expectations: _t.Dict[int, int],
    config: SmokeConfig,
) -> _t.Dict[str, _t.Any]:
    """The oracle subset over persisted shard state; pure, testable."""
    oracles: _t.Dict[str, _t.List[str]] = {
        "exactly_once": [],
        "shard_ownership": [],
        "disjointness": [],
        "fsck": [],
        "data_pattern": [],
        "expectations": [],
    }

    committed = IntervalSet()
    seen_files: _t.Dict[int, _t.Dict[str, _t.Any]] = {}
    for dump in dumps:
        shard = dump["shard"]
        shards = dump["shards"]
        base = dump["base_offset"]
        top = base + dump["slice_size"]

        for client_id, op_id, count in dump["commit_apply_counts"]:
            if count != 1:
                oracles["exactly_once"].append(
                    f"shard {shard}: commit (client={client_id}, "
                    f"op={op_id}) applied {count} times"
                )

        for entry in dump["files"]:
            file_id = entry["file_id"]
            seen_files[file_id] = entry
            if (file_id - 1) % shards != shard:
                oracles["shard_ownership"].append(
                    f"file {file_id} persisted by shard {shard}, owner "
                    f"is {(file_id - 1) % shards}"
                )
            for fo, length, _dev, vo, state in entry["extents"]:
                if state != "committed":
                    oracles["fsck"].append(
                        f"file {file_id} extent at {fo} persisted in "
                        f"state {state!r}"
                    )
                if vo < base or vo + length > top:
                    oracles["shard_ownership"].append(
                        f"file {file_id} extent [{vo}, {vo + length}) "
                        f"escapes shard {shard}'s slice [{base}, {top})"
                    )
                if committed.overlaps(vo, vo + length):
                    oracles["disjointness"].append(
                        f"volume range [{vo}, {vo + length}) of file "
                        f"{file_id} overlaps another committed extent"
                    )
                committed.add(vo, vo + length)

        # fsck on reconstructed durable state: the committed namespace
        # must rebuild into a clean allocator (no overlap, no escape).
        namespace = Namespace(first_id=shard + 1, id_step=shards)
        for entry in dump["files"]:
            meta = FileMeta(
                file_id=entry["file_id"],
                name=entry["name"],
                ctime=entry["ctime"],
                mtime=entry["mtime"],
                size=entry["size"],
                extents=[
                    Extent(
                        file_offset=fo,
                        length=length,
                        device_id=dev,
                        volume_offset=vo,
                        state=state,
                    )
                    for fo, length, dev, vo, state in entry["extents"]
                ],
            )
            namespace._files[meta.file_id] = meta
            namespace._by_name[meta.name] = meta.file_id
        space = SpaceManager(
            volume_size=dump["slice_size"],
            base_offset=base,
            num_groups=4,
        )
        try:
            rebuilt = rebuild_free_space(namespace, space)
        except ValueError as exc:
            oracles["fsck"].append(f"shard {shard}: rebuild failed: {exc}")
        else:
            report = fsck(namespace, rebuilt)
            if not report.clean:
                oracles["fsck"].append(
                    f"shard {shard}: {report.summary()}"
                )

    # Ordered writes made real: every committed extent's bytes must
    # already be the owning file's pattern in the volume file.
    if os.path.exists(volume_path):
        with open(volume_path, "rb") as handle:
            for file_id, entry in sorted(seen_files.items()):
                want = pattern_byte(file_id)
                for fo, length, _dev, vo, _state in entry["extents"]:
                    handle.seek(vo)
                    data = handle.read(length)
                    if len(data) < length or data.count(want) != length:
                        oracles["data_pattern"].append(
                            f"file {file_id} extent [{vo}, "
                            f"{vo + length}) does not hold pattern "
                            f"byte {want}"
                        )
                        break
    else:
        oracles["data_pattern"].append(
            f"volume file {volume_path} missing"
        )

    for file_id, size in sorted(expectations.items()):
        entry = seen_files.get(file_id)
        if entry is None:
            oracles["expectations"].append(
                f"file {file_id} committed by a client but absent "
                "from every shard dump"
            )
        elif entry["size"] != size:
            oracles["expectations"].append(
                f"file {file_id} persisted size {entry['size']}, "
                f"client expected {size}"
            )
    for file_id in sorted(seen_files):
        if file_id not in expectations:
            oracles["expectations"].append(
                f"file {file_id} persisted but never expected "
                "(unlinked or foreign)"
            )

    violations = sum(len(v) for v in oracles.values())
    return {
        "ok": violations == 0,
        "violations": violations,
        "oracles": oracles,
        "files_persisted": len(seen_files),
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
