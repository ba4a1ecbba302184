"""One live metadata shard: the simulator's MDS on a real TCP socket.

``repro serve`` runs one of these per shard process.  The server object
is the *unmodified* :class:`repro.mds.server.MetadataServer` -- same
daemon loops, same namespace lock, same exactly-once commit table,
same reply cache -- running on :class:`repro.rt.AsyncioEffects` instead
of the virtual calendar.  Only the edges are substrate-specific:

- a per-connection reader decodes request frames (:mod:`repro.net.wire`)
  and drops them into the server's :class:`~repro.net.rpc.RpcServerPort`
  inbox, exactly where the simulated uplink would, one delivery per
  socket read; the inbox forms the service groups;
- a per-connection reply transport (registered with the port under the
  requesting client's id, the rt analogue of
  :meth:`RpcServerPort.register`) frames replies back down the same
  socket, one write per loop tick (:mod:`repro.rt.framing`);
- a ``ctl`` channel answers ping/stats and performs the shutdown dump.

On shutdown the shard persists its durable state -- namespace, commit
apply counts, oplog, orphan books -- to ``shard-<k>.json`` in the data
directory.  That file is the ground truth ``repro smoke`` reloads and
judges with the simulator's oracle panel
(:func:`repro.consistency.panel.judge_shards`).

``--drop-every N`` makes the shard deliberately drop every Nth request
frame *before* delivery, forcing real retransmissions through the
client's retry machinery so the smoke run exercises duplicate
suppression on real sockets.
"""

from __future__ import annotations

import asyncio
import json
import os
import typing as _t

from repro.mds.server import MdsParameters, MetadataServer
from repro.mds.sharding import build_shard_state
from repro.net.messages import RpcMessage
from repro.net.rpc import RpcServerPort
from repro.net.wire import (
    FrameDecoder,
    FrameError,
    encode_frame,
    request_from_wire,
    result_to_wire,
)
from repro.core.kernel.events import Event
from repro.rt.effects import AsyncioEffects
from repro.rt.framing import FrameWriter, WireCounters
from repro.util.rng import StreamRNG

__all__ = [
    "ShardConfig",
    "serve_shard",
    "dump_shard_state",
    "shard_stats",
]

class ShardConfig:
    """Everything one shard process needs to know."""

    #: Every live shard's allocator (``locality`` never draws from its
    #: RNG stream) and MDS.  No lease GC: reclaiming a silent client's
    #: space is only safe behind the array-side fence (DESIGN §8), and
    #: the live volume file has none.
    num_groups = 4
    ag_strategy = "locality"
    lease_duration = None

    def __init__(
        self,
        shard: int,
        shards: int,
        data_dir: str,
        port: int = 0,
        host: str = "127.0.0.1",
        volume_size: int = 256 * 1024 * 1024,
        num_daemons: int = 4,
        drop_every: int = 0,
    ) -> None:
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} out of range for {shards}")
        self.shard = shard
        self.shards = shards
        self.data_dir = data_dir
        self.port = port
        self.host = host
        self.volume_size = volume_size
        self.num_daemons = num_daemons
        self.drop_every = drop_every

    @property
    def dump_path(self) -> str:
        return os.path.join(self.data_dir, f"shard-{self.shard}.json")


def dump_shard_state(
    server: MetadataServer, config: ShardConfig
) -> _t.Dict[str, _t.Any]:
    """The shard's durable state, JSON-shaped (the oracle panel's input)."""
    namespace = server.namespace
    files = [
        {
            "file_id": meta.file_id,
            "name": meta.name,
            "ctime": meta.ctime,
            "mtime": meta.mtime,
            "size": meta.size,
            "extents": [
                [e.file_offset, e.length, e.device_id, e.volume_offset, e.state]
                for e in meta.extents
            ],
        }
        for meta in sorted(
            namespace._files.values(), key=lambda m: m.file_id
        )
    ]
    return {
        "shard": config.shard,
        "shards": config.shards,
        "volume_size": config.volume_size,
        "slice_size": server.space.volume_size,
        "base_offset": server.space.base_offset,
        "num_groups": len(server.space.groups),
        "strategy": server.space.strategy,
        "files": files,
        "commit_apply_counts": [
            [client_id, op_id, count]
            for (client_id, op_id), count in sorted(
                server.commit_apply_counts.items()
            )
        ],
        "oplog": server.oplog,
        "uncommitted": {
            str(client_id): [[start, end] for start, end in ranges]
            for client_id, ranges in server.space._uncommitted.items()
        },
        "stats": shard_stats(server),
    }


def shard_stats(server: MetadataServer) -> _t.Dict[str, _t.Any]:
    """The server's counters (dump and ctl ``stats`` -> ``stats``)."""
    return {
        "requests_processed": server.requests_processed,
        "groups_served": server.groups_served,
        "ops_processed": server.ops_processed,
        "duplicate_requests_suppressed": server.duplicate_requests_suppressed,
        "duplicate_commits_suppressed": server.duplicate_commits_suppressed,
        "stale_commits": server.stale_commits,
        "free_bytes": server.space.free_bytes,
        "files": len(server.namespace),
    }


class _ConnReplyTransport:
    """Reply path for one client connection (``RpcServerPort.reply``
    routes through whatever transport is registered per client id)."""

    def __init__(self, outbound: FrameWriter) -> None:
        self.outbound = outbound

    def send_reply(self, message: _t.Any) -> None:
        # If the client went away the frame writer swallows the reply:
        # lost on the wire, exactly like a downlink drop; the client's
        # retry recovers it.
        self.outbound.send(
            {
                "frame": "reply",
                "client_id": message.client_id,
                "xid": message.xid,
                "result": result_to_wire(message.result),
            }
        )


async def serve_shard(
    config: ShardConfig,
    ready: _t.Optional[_t.Callable[[int], None]] = None,
) -> _t.Dict[str, _t.Any]:
    """Run one shard until a ctl shutdown arrives; returns its dump."""
    env = AsyncioEffects(asyncio.get_running_loop())
    namespace, space = build_shard_state(
        config.shard, config.shards, config.volume_size,
        config.num_groups, config.ag_strategy, StreamRNG(0),
    )
    params = MdsParameters(
        num_daemons=config.num_daemons,
        lease_duration=config.lease_duration,
        shards=config.shards,
    )
    server = MetadataServer(env, params, namespace, space, RpcServerPort(env))
    stop = asyncio.Event()
    request_counter = [0]
    dropped = [0]
    wire = WireCounters()  # over every client connection

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        outbound = FrameWriter(env.loop, writer, wire)
        reply_transport = _ConnReplyTransport(outbound)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except FrameError:
                    # Corrupt stream: nothing after this point can be
                    # trusted; sever the connection.
                    return
                pending: _t.List[RpcMessage] = []
                carried = False  # the read held any request frame
                for frame in frames:
                    kind = frame.get("frame")
                    if kind == "request":
                        carried = True
                        request_counter[0] += 1
                        if (
                            config.drop_every
                            and request_counter[0] % config.drop_every == 0
                        ):
                            dropped[0] += 1
                            continue
                        message = request_from_wire(frame, Event(env))
                        server.port.register(
                            message.client_id, reply_transport
                        )
                        pending.append(message)
                    elif kind == "ctl":
                        # Requests read before a ctl frame are in service
                        # before it is answered.
                        if pending:
                            server.port.deliver(*pending)
                            pending = []
                        await handle_ctl(frame, writer)
                    # Unknown frames are ignored (forward compatibility).
                if pending:
                    server.port.deliver(*pending)
                wire.socket_reads += carried
        except (asyncio.CancelledError, ConnectionError):
            return
        finally:
            outbound.flush()
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def handle_ctl(
        frame: _t.Dict[str, _t.Any], writer: asyncio.StreamWriter
    ) -> None:
        op = frame.get("op")
        if op == "ping":
            reply: _t.Dict[str, _t.Any] = {"ok": True, "shard": config.shard}
        elif op == "stats":
            reply = {
                "ok": True,
                "shard": config.shard,
                "stats": shard_stats(server),
                "requests_dropped": dropped[0],
                "wire": wire.as_dict(),
                "kernel": env.kernel_stats(),
            }
        elif op == "shutdown":
            dump = dump_shard_state(server, config)
            dump["requests_dropped"] = dropped[0]
            with open(config.dump_path, "w") as handle:
                json.dump(dump, handle, indent=1, sort_keys=True)
            reply = {"ok": True, "shard": config.shard, "dump": config.dump_path}
            stop.set()
        else:
            reply = {"ok": False, "error": f"unknown ctl op {op!r}"}
        writer.write(encode_frame(reply))
        await writer.drain()

    tcp_server = await asyncio.start_server(
        handle_connection, config.host, config.port
    )
    actual_port = tcp_server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(actual_port)
    try:
        await stop.wait()
    finally:
        tcp_server.close()
        await tcp_server.wait_closed()
    env.check_failures()
    return dump_shard_state(server, config)
