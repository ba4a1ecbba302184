"""Client-side TCP transport: the rt stand-in for ``RpcTransport``.

Duck-type compatible with :class:`repro.net.rpc.RpcTransport` /
:class:`repro.mds.sharding.ShardRoutingTransport`: the same
``send_request`` / ``register_client`` surface and an ``uplink``
attribute, so :class:`repro.net.rpc.RpcClient` and the whole protocol
stack above it (commit queue, daemon pool, compound controller) plug in
unmodified.  Requests are routed per message by the deterministic
:class:`~repro.mds.sharding.ShardRouter` -- the same arithmetic the
simulator uses -- then framed (:mod:`repro.net.wire`) and handed to the
owning shard connection's :class:`~repro.rt.framing.FrameWriter`, which
puts all the frames of one loop tick on the socket in one write.

Replies are matched by ``(client_id, xid)``.  A retransmitted request
reuses its xid (what makes server-side duplicate suppression work), so
several replies may arrive for one slot; the first completes the
message's reply event, the rest are dropped -- identical semantics to
the simulator's ``_deliver_reply``.
"""

from __future__ import annotations

import asyncio
import typing as _t

from repro.mds.sharding import ShardRouter
from repro.net.messages import RpcMessage
from repro.net.wire import (
    FrameDecoder,
    encode_frame,
    request_to_wire,
    result_from_wire,
)
from repro.rt.framing import FrameWriter, WireCounters

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.rt.effects import AsyncioEffects

__all__ = ["RtClusterTransport", "ctl_request"]


class _NullUplink:
    """Stands in for the modelled client NIC.

    The compound controller reads ``backlog`` when sizing compounds
    adaptively; a real socket exposes no modelled queue, so the backlog
    reads zero and rt deployments use fixed compound degrees.
    """

    backlog = 0
    queued_bytes = 0


class RtClusterTransport:
    """One client process's connections to every metadata shard."""

    def __init__(
        self,
        env: "AsyncioEffects",
        router: ShardRouter,
    ) -> None:
        self.env = env
        self.router = router
        self.uplink = _NullUplink()
        self._writers: _t.List[FrameWriter] = []
        self._readers: _t.List["asyncio.Task[None]"] = []
        self._inflight: _t.Dict[_t.Tuple[int, int], RpcMessage] = {}
        #: Frames, socket writes and reads over all shard connections.
        self.wire = WireCounters()
        self.requests_sent = 0
        self.replies_received = 0
        self.unmatched_replies = 0

    @classmethod
    async def connect(
        cls,
        env: "AsyncioEffects",
        addresses: _t.Sequence[_t.Tuple[str, int]],
        router: ShardRouter,
    ) -> "RtClusterTransport":
        """Open one connection per shard and start the reply readers.

        A shard that refuses closes the connections already opened
        before the error propagates.
        """
        if len(addresses) != router.num_shards:
            raise ValueError(
                f"{len(addresses)} addresses for {router.num_shards} shards"
            )
        transport = cls(env, router)
        try:
            for host, port in addresses:
                transport._attach(*await asyncio.open_connection(host, port))
        except BaseException:
            await transport.aclose()
            raise
        return transport

    def _attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Adopt the next shard's connection and start its reply reader."""
        self._writers.append(FrameWriter(self.env.loop, writer, self.wire))
        self._readers.append(
            asyncio.ensure_future(self._read_replies(reader))
        )

    async def aclose(self) -> None:
        for task in self._readers:
            task.cancel()
        for outbound in self._writers:
            outbound.flush()
            writer = outbound.writer
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._readers = []
        self._writers = []

    # -- RpcTransport surface ----------------------------------------------

    def register_client(self, client_id: int) -> None:
        """Reply paths are per-connection on the server side; nothing to
        pre-register from here."""

    def send_request(self, message: RpcMessage) -> None:
        """Queue the request for its shard's next write.

        A connection that is closing swallows it -- a lost uplink frame,
        which the client's ``RetryPolicy`` recovers.
        """
        shard = self.router.shard_for_message(message)
        self._inflight[(message.client_id, message.xid)] = message
        self._writers[shard].send(request_to_wire(message))
        self.requests_sent += 1

    # -- reply pump ---------------------------------------------------------

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                frames = decoder.feed(data)
                self.wire.socket_reads += bool(frames)
                for frame in frames:
                    self._dispatch_reply(frame)
        except asyncio.CancelledError:
            return

    def _dispatch_reply(self, frame: _t.Dict[str, _t.Any]) -> None:
        if frame.get("frame") != "reply":
            self.unmatched_replies += 1
            return
        key = (frame["client_id"], frame["xid"])
        message = self._inflight.pop(key, None)
        if message is None:
            # A duplicate reply to a request that already completed
            # (the server answered both the original and a retransmit).
            self.unmatched_replies += 1
            return
        self.replies_received += 1
        if not message.reply_event.triggered:
            message.result = result_from_wire(frame["result"])
            message.reply_event.succeed(message.result)


async def ctl_request(
    host: str, port: int, request: _t.Dict[str, _t.Any], timeout: float = 10.0
) -> _t.Dict[str, _t.Any]:
    """One-shot control-channel exchange with a shard (ping/stats/shutdown)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(dict(request, frame="ctl")))
        await writer.drain()
        decoder = FrameDecoder()
        while True:
            data = await asyncio.wait_for(reader.read(65536), timeout)
            if not data:
                raise ConnectionError(
                    f"shard at {host}:{port} closed the ctl channel "
                    f"before answering {request!r}"
                )
            frames = decoder.feed(data)
            if frames:
                return frames[0]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
