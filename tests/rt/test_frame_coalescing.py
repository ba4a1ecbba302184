"""One socket write per loop tick, at both ends of an rt connection.

``RtClusterTransport.send_request`` and the shard's reply transport both
send through :class:`repro.rt.framing.FrameWriter`.  A recording writer
stands in for the ``StreamWriter`` here, so what is asserted is exactly
what would have reached ``socket.send``: how many writes, and that their
bytes decode to the original frames, in order.
"""

import asyncio
import time

from repro.core.kernel.events import Event
from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.mds.sharding import ShardRouter
from repro.net.messages import CreatePayload, GetattrPayload, RpcMessage
from repro.net.rpc import RpcServerPort
from repro.net.wire import FrameDecoder, request_to_wire, result_to_wire
from repro.rt.effects import AsyncioEffects
from repro.rt.framing import FrameWriter, WireCounters
from repro.rt.server import _ConnReplyTransport
from repro.rt.transport import RtClusterTransport


class RecordingWriter:
    """The slice of ``asyncio.StreamWriter`` the rt send path uses."""

    def __init__(self):
        self.writes = []
        self.closing = False

    def write(self, data):
        assert not self.closing, "wrote into a closing transport"
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    async def wait_closed(self):
        pass


def _transport(env, shards=1):
    transport = RtClusterTransport(env, ShardRouter(num_shards=shards))
    writers = [RecordingWriter() for _ in range(shards)]
    for writer in writers:
        transport._attach(asyncio.StreamReader(), writer)
    return transport, writers


def _request(env, file_id, xid):
    return RpcMessage(
        kind="getattr",
        payload=GetattrPayload(file_id=file_id),
        client_id=1,
        reply_event=Event(env),
        send_time=0.0,
        xid=xid,
    )


def _decode(chunk):
    decoder = FrameDecoder()
    frames = decoder.feed(chunk)
    assert decoder.pending_bytes == 0
    return frames


async def _tick():
    """Let the callbacks armed so far (a pending flush) run."""
    await asyncio.sleep(0)


def test_requests_of_one_tick_leave_in_one_write():
    async def main():
        env = AsyncioEffects()
        transport, (writer,) = _transport(env)
        messages = [_request(env, 1, xid) for xid in range(1, 41)]
        for message in messages:
            transport.send_request(message)
        assert writer.writes == []  # nothing before the tick ends
        await _tick()
        assert len(writer.writes) == 1
        assert _decode(writer.writes[0]) == [
            request_to_wire(m) for m in messages
        ]
        assert transport.requests_sent == 40
        assert transport.wire.as_dict() == {
            "frames_sent": 40,
            "socket_writes": 1,
            "frames_per_write": 40.0,
            "socket_reads": 0,
        }
        await transport.aclose()

    asyncio.run(main())


def test_two_ticks_make_two_writes():
    async def main():
        env = AsyncioEffects()
        transport, (writer,) = _transport(env)
        for xid in (1, 2, 3):
            transport.send_request(_request(env, 1, xid))
        await _tick()
        for xid in (4, 5):
            transport.send_request(_request(env, 1, xid))
        await _tick()
        assert [
            [f["xid"] for f in _decode(chunk)] for chunk in writer.writes
        ] == [[1, 2, 3], [4, 5]]
        assert transport.wire.socket_writes == 2
        assert transport.wire.frames_sent == 5
        await transport.aclose()

    asyncio.run(main())


def test_each_shard_connection_batches_its_own_frames():
    async def main():
        env = AsyncioEffects()
        transport, writers = _transport(env, shards=2)
        router = transport.router
        for xid, file_id in enumerate([1, 2, 3, 4, 5], start=1):
            transport.send_request(_request(env, file_id, xid))
        await _tick()
        for shard, writer in enumerate(writers):
            (chunk,) = writer.writes
            assert [f["payload"]["file_id"] for f in _decode(chunk)] == [
                f for f in (1, 2, 3, 4, 5) if router.shard_of_file(f) == shard
            ]
        assert transport.wire.socket_writes == 2
        await transport.aclose()

    asyncio.run(main())


def test_aclose_flushes_what_is_pending():
    async def main():
        env = AsyncioEffects()
        transport, (writer,) = _transport(env)
        for xid in (1, 2):
            transport.send_request(_request(env, 1, xid))
        await transport.aclose()  # same tick: the flush has not run yet
        assert [f["xid"] for f in _decode(writer.writes[0])] == [1, 2]
        assert writer.closing
        await _tick()  # the armed flush finds nothing left
        assert len(writer.writes) == 1

    asyncio.run(main())


def test_request_to_a_closing_connection_is_dropped_not_written():
    """A lost uplink frame: nothing raised, nothing written, the request
    stays in flight for the client's retry to resend."""

    async def main():
        env = AsyncioEffects()
        transport, (writer,) = _transport(env)
        message = _request(env, 1, 9)
        transport.send_request(message)
        writer.close()  # the connection dies before the tick ends
        await _tick()
        assert writer.writes == []
        assert transport.wire.as_dict() == {
            "frames_sent": 0,
            "socket_writes": 0,
            "frames_per_write": 0.0,
            "socket_reads": 0,
        }
        assert not message.reply_event.triggered
        transport.send_request(message)  # the retransmission
        await _tick()
        assert writer.writes == []
        await transport.aclose()

    asyncio.run(main())


def test_replies_of_one_tick_leave_in_one_write():
    async def main():
        env = AsyncioEffects()
        writer = RecordingWriter()
        counters = WireCounters()
        replies = _ConnReplyTransport(FrameWriter(env.loop, writer, counters))
        messages = [_request(env, 1, xid) for xid in range(1, 9)]
        for message in messages:
            message.result = True
            replies.send_reply(message)
        await _tick()
        (chunk,) = writer.writes
        assert _decode(chunk) == [
            {
                "frame": "reply",
                "client_id": 1,
                "xid": m.xid,
                "result": result_to_wire(True),
            }
            for m in messages
        ]
        assert (counters.frames_sent, counters.socket_writes) == (8, 1)
        writer.close()  # client went away: the reply is lost, not raised
        replies.send_reply(messages[0])
        await _tick()
        assert len(writer.writes) == 1

    asyncio.run(main())


def test_shard_answers_one_tick_of_requests_in_one_write():
    """The whole service chain -- inbox, four daemons, namespace lock,
    modelled service timers, reply -- of every request a tick delivered
    runs inside one drain of the substrate's calendar, so the replies
    leave together."""

    async def main():
        env = AsyncioEffects()
        server = MetadataServer(
            env,
            MdsParameters(
                num_daemons=4, svc_message=0.0, svc_op=0.0, svc_apply=0.0
            ),
            Namespace(),
            SpaceManager(volume_size=1 << 20),
            RpcServerPort(env),
        )
        writer = RecordingWriter()
        counters = WireCounters()
        server.port.register(
            1, _ConnReplyTransport(FrameWriter(env.loop, writer, counters))
        )
        for xid in range(1, 17):
            server.port.deliver(
                RpcMessage(
                    kind="create",
                    payload=CreatePayload(name=f"f{xid}"),
                    client_id=1,
                    reply_event=Event(env),
                    send_time=0.0,
                    xid=xid,
                )
            )
        await _tick()  # the drain
        await _tick()  # the flush it armed
        (chunk,) = writer.writes
        replies = _decode(chunk)
        assert [r["xid"] for r in replies] == list(range(1, 17))
        assert [r["result"]["name"] for r in replies] == [
            f"f{xid}" for xid in range(1, 17)
        ]
        assert (counters.frames_sent, counters.socket_writes) == (16, 1)
        assert server.requests_processed == 16
        env.check_failures()

    asyncio.run(main())


def test_shard_answers_one_read_of_requests_in_at_most_three_writes():
    """Default service costs: the inbox serves one delivery of 16
    requests as 3 groups (``g = 7``), each answered at one apply timer,
    so at most three socket writes carry the 16 replies."""

    async def main():
        env = AsyncioEffects()
        server = MetadataServer(
            env,
            MdsParameters(),
            Namespace(),
            SpaceManager(volume_size=1 << 20),
            RpcServerPort(env),
        )
        writer = RecordingWriter()
        counters = WireCounters()
        server.port.register(
            1, _ConnReplyTransport(FrameWriter(env.loop, writer, counters))
        )
        requests = [
            RpcMessage(
                kind="create",
                payload=CreatePayload(name=f"f{xid}"),
                client_id=1,
                reply_event=Event(env),
                send_time=0.0,
                xid=xid,
            )
            for xid in range(1, 17)
        ]
        server.port.deliver(*requests)
        deadline = time.monotonic() + 10.0
        while counters.frames_sent < 16 and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        env.check_failures()
        replies = [r for chunk in writer.writes for r in _decode(chunk)]
        assert sorted(r["xid"] for r in replies) == list(range(1, 17))
        assert 1 <= counters.socket_writes <= 3
        assert server.requests_processed == 16
        assert server.groups_served == 3

    asyncio.run(main())
