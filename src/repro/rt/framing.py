"""One socket write per loop tick: the rt substrate's only send path.

``StreamWriter.write`` calls ``socket.send`` at once, so writing each
frame as it is produced costs one syscall -- and, with the peer on the
same CPU, one wake-up for a batch of one -- per message.  Both ends of
an rt connection instead hand their frames to a :class:`FrameWriter`:
the first frame of an event-loop tick arms a single
``loop.call_soon(flush)``, every later frame of that tick joins the
list, and ``flush`` writes them as one chunk.  Frames stay individually
length-prefixed (:func:`repro.net.wire.encode_frame`), so the receiving
:class:`~repro.net.wire.FrameDecoder`, xid matching, ``--drop-every``
and retransmission see exactly the frames they saw before; only their
packing into ``send`` calls changes.  There is no size threshold and no
timer: a frame waits at most the rest of the tick that produced it.

A tick, for frames produced by kernel events, is one drain of
:class:`~repro.rt.effects.AsyncioEffects`' calendar: every ready event
and every deadline that has passed run inside one loop callback, so the
``flush`` armed by the first reply of a drain runs after the last one
and a shard's replies to one batch of requests leave together.

A connection that is closing swallows its batch.  That is a lost frame,
which the protocol already survives: the client's ``RetryPolicy``
retransmits the request, the server's reply cache answers the duplicate.
"""

from __future__ import annotations

import asyncio
import typing as _t

from repro.net.wire import encode_frame

__all__ = ["WireCounters", "FrameWriter"]


class WireCounters:
    """Frames handed to sockets, the writes that carried them, and the
    reads that carried the endpoint's inbound traffic (replies at a
    client, requests at a shard).

    One instance is shared by every :class:`FrameWriter` of an endpoint
    (all of a client transport's shard connections; all of a shard's
    client connections), so the endpoint reports one set of totals.
    """

    __slots__ = ("frames_sent", "socket_writes", "socket_reads")

    def __init__(self) -> None:
        self.frames_sent = 0
        self.socket_writes = 0
        self.socket_reads = 0

    def as_dict(self) -> _t.Dict[str, float]:
        """The report shape (``repro smoke --report``, ctl ``stats``)."""
        writes = self.socket_writes
        return {
            "frames_sent": self.frames_sent,
            "socket_writes": writes,
            "frames_per_write": self.frames_sent / writes if writes else 0.0,
            "socket_reads": self.socket_reads,
        }


class FrameWriter:
    """Coalesces one connection's frames of a loop tick into one write."""

    __slots__ = ("_loop", "writer", "_counters", "_frames")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        writer: asyncio.StreamWriter,
        counters: WireCounters,
    ) -> None:
        self._loop = loop
        self.writer = writer
        self._counters = counters
        self._frames: _t.List[bytes] = []

    def send(self, obj: _t.Any) -> None:
        """Queue one frame; it leaves with the rest of this tick's."""
        frames = self._frames
        if not frames:
            self._loop.call_soon(self.flush)
        frames.append(encode_frame(obj))

    def flush(self) -> None:
        """Write what is pending as one chunk (no-op when nothing is)."""
        frames = self._frames
        if not frames:
            return
        self._frames = []
        if self.writer.is_closing():
            return
        self.writer.write(b"".join(frames))
        counters = self._counters
        counters.frames_sent += len(frames)
        counters.socket_writes += 1
