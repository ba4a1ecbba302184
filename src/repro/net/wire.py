"""Length-prefixed JSON wire codec for the real-socket substrate.

The simulator never serialises anything -- RPC payloads are shared Python
objects riding :class:`~repro.net.messages.RpcMessage` through modelled
links.  The asyncio substrate (``repro.rt``) sends the same messages over
real TCP, so it needs a wire format.  This module is that format:

* **Framing** -- each frame is a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON (the classic clusterIO /
  ONC-RPC record-marking shape).  Frames above :data:`MAX_FRAME` are
  rejected before buffering so a corrupt or hostile peer cannot balloon
  memory; truncated frames simply wait in the decoder until the rest of
  the bytes arrive (or the connection drops).
* **Payload codec** -- every request payload type in
  :mod:`repro.net.messages` and every reply type the metadata server
  produces (``None``/``bool``/``list[bool]``/:class:`FileMeta`/
  :class:`LayoutReply`/:class:`Chunk`) round-trips through plain JSON
  dicts tagged with a ``"type"`` discriminator.

The codec is substrate-independent pure code (no asyncio imports), so the
Hypothesis round-trip tests exercise it without an event loop.
"""

from __future__ import annotations

import json
import struct
import typing as _t

from repro.mds.extent import Chunk, Extent
from repro.mds.namespace import FileMeta
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    Payload,
    ReleasePayload,
    RpcMessage,
    UnlinkPayload,
)

__all__ = [
    "MAX_FRAME",
    "FrameError",
    "FrameDecoder",
    "encode_frame",
    "payload_to_wire",
    "payload_from_wire",
    "result_to_wire",
    "result_from_wire",
    "request_to_wire",
    "request_from_wire",
]

#: Upper bound on one frame's JSON body.  Generous for metadata RPCs (a
#: maximal compound commit is a few hundred KiB) while still bounding a
#: bad length prefix.
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(Exception):
    """A malformed frame: oversized length prefix or undecodable body."""


def encode_frame(obj: _t.Any) -> bytes:
    """Serialise ``obj`` to one length-prefixed JSON frame."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame body {len(body)} exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser for a TCP byte stream.

    Feed it whatever ``recv`` returned; it yields every complete frame
    and buffers the tail.  A length prefix above :data:`MAX_FRAME`
    raises :class:`FrameError` immediately -- the connection should be
    dropped, the buffered bytes are garbage from then on.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> _t.List[_t.Any]:
        buf = self._buf
        buf.extend(data)
        frames: _t.List[_t.Any] = []
        end = len(buf)
        pos = 0
        # Walk an offset and trim once: a chunk routinely carries many
        # frames, and deleting each from the front is quadratic in them.
        try:
            while end - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(buf, pos)
                if length > MAX_FRAME:
                    raise FrameError(
                        f"frame length {length} exceeds {MAX_FRAME}"
                    )
                start = pos + _LEN.size
                if end - start < length:
                    break
                pos = start + length
                try:
                    frames.append(json.loads(buf[start:pos].decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise FrameError(
                        f"undecodable frame body: {exc}"
                    ) from exc
        finally:
            del buf[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buf)


# -- extents and chunks ------------------------------------------------------


def _extent_to_wire(e: Extent) -> _t.List[_t.Any]:
    return [e.file_offset, e.length, e.device_id, e.volume_offset, e.state]


def _extent_from_wire(obj: _t.Sequence[_t.Any]) -> Extent:
    file_offset, length, device_id, volume_offset, state = obj
    return Extent(
        file_offset=file_offset,
        length=length,
        device_id=device_id,
        volume_offset=volume_offset,
        state=state,
    )


def _chunk_to_wire(c: _t.Optional[Chunk]) -> _t.Optional[_t.List[int]]:
    return None if c is None else [c.volume_offset, c.length]


def _chunk_from_wire(obj: _t.Optional[_t.Sequence[int]]) -> _t.Optional[Chunk]:
    return None if obj is None else Chunk(volume_offset=obj[0], length=obj[1])


# -- request payloads --------------------------------------------------------


def payload_to_wire(payload: Payload) -> _t.Dict[str, _t.Any]:
    """Encode one request payload to a JSON-safe dict."""
    if isinstance(payload, CreatePayload):
        return {"type": "create", "name": payload.name}
    if isinstance(payload, GetattrPayload):
        return {"type": "getattr", "file_id": payload.file_id}
    if isinstance(payload, LayoutGetPayload):
        return {
            "type": "layout_get",
            "file_id": payload.file_id,
            "offset": payload.offset,
            "length": payload.length,
            "allocate": payload.allocate,
            "delegation_hint": payload.delegation_hint,
            "scattered": payload.scattered,
        }
    if isinstance(payload, DelegationPayload):
        return {
            "type": "delegation",
            "chunk_size": payload.chunk_size,
            "shard": payload.shard,
        }
    if isinstance(payload, CommitPayload):
        return {
            "type": "commit",
            "ops": [
                {
                    "file_id": op.file_id,
                    "extents": [_extent_to_wire(e) for e in op.extents],
                    "enqueue_time": op.enqueue_time,
                    "trace_ids": list(op.trace_ids),
                    "op_id": op.op_id,
                }
                for op in payload.ops
            ],
        }
    if isinstance(payload, ReleasePayload):
        return {
            "type": "release",
            "chunks": [list(pair) for pair in payload.chunks],
            "shard": payload.shard,
        }
    if isinstance(payload, UnlinkPayload):
        return {"type": "unlink", "file_id": payload.file_id}
    raise TypeError(f"unknown payload {payload!r}")


def payload_from_wire(obj: _t.Dict[str, _t.Any]) -> Payload:
    """Decode a request payload dict back into its dataclass."""
    kind = obj["type"]
    if kind == "create":
        return CreatePayload(name=obj["name"])
    if kind == "getattr":
        return GetattrPayload(file_id=obj["file_id"])
    if kind == "layout_get":
        return LayoutGetPayload(
            file_id=obj["file_id"],
            offset=obj["offset"],
            length=obj["length"],
            allocate=obj["allocate"],
            delegation_hint=obj["delegation_hint"],
            scattered=obj["scattered"],
        )
    if kind == "delegation":
        return DelegationPayload(
            chunk_size=obj["chunk_size"], shard=obj["shard"]
        )
    if kind == "commit":
        return CommitPayload(
            ops=[
                CommitOp(
                    file_id=op["file_id"],
                    extents=[_extent_from_wire(e) for e in op["extents"]],
                    enqueue_time=op["enqueue_time"],
                    trace_ids=tuple(op["trace_ids"]),
                    op_id=op["op_id"],
                )
                for op in obj["ops"]
            ]
        )
    if kind == "release":
        return ReleasePayload(
            chunks=[(pair[0], pair[1]) for pair in obj["chunks"]],
            shard=obj["shard"],
        )
    if kind == "unlink":
        return UnlinkPayload(file_id=obj["file_id"])
    raise FrameError(f"unknown payload type {kind!r}")


# -- reply results -----------------------------------------------------------

# Imported lazily to avoid a cycle: mds.server imports net.messages.
def _layout_reply_cls() -> type:
    from repro.mds.server import LayoutReply

    return LayoutReply


def result_to_wire(result: _t.Any) -> _t.Dict[str, _t.Any]:
    """Encode one reply value to a JSON-safe tagged dict."""
    if result is None:
        return {"type": "none"}
    if isinstance(result, bool):
        return {"type": "bool", "value": result}
    if isinstance(result, list) and all(
        isinstance(x, bool) for x in result
    ):
        return {"type": "bools", "value": result}
    if isinstance(result, FileMeta):
        return {
            "type": "filemeta",
            "file_id": result.file_id,
            "name": result.name,
            "ctime": result.ctime,
            "mtime": result.mtime,
            "size": result.size,
            "extents": [_extent_to_wire(e) for e in result.extents],
        }
    if isinstance(result, Chunk):
        return {"type": "chunk", "value": _chunk_to_wire(result)}
    if isinstance(result, _layout_reply_cls()):
        return {
            "type": "layout_reply",
            "extents": [_extent_to_wire(e) for e in result.extents],
            "chunk": _chunk_to_wire(result.chunk),
        }
    raise TypeError(f"unencodable result {result!r}")


def result_from_wire(obj: _t.Dict[str, _t.Any]) -> _t.Any:
    """Decode a reply dict back into the server's native value."""
    kind = obj["type"]
    if kind == "none":
        return None
    if kind == "bool":
        return obj["value"]
    if kind == "bools":
        return list(obj["value"])
    if kind == "filemeta":
        return FileMeta(
            file_id=obj["file_id"],
            name=obj["name"],
            ctime=obj["ctime"],
            mtime=obj["mtime"],
            size=obj["size"],
            extents=[_extent_from_wire(e) for e in obj["extents"]],
        )
    if kind == "chunk":
        return _chunk_from_wire(obj["value"])
    if kind == "layout_reply":
        return _layout_reply_cls()(
            extents=[_extent_from_wire(e) for e in obj["extents"]],
            chunk=_chunk_from_wire(obj["chunk"]),
        )
    raise FrameError(f"unknown result type {kind!r}")


# -- whole requests ----------------------------------------------------------


def request_to_wire(message: RpcMessage) -> _t.Dict[str, _t.Any]:
    """Encode an in-flight request (reply plumbing stays local)."""
    return {
        "frame": "request",
        "kind": message.kind,
        "payload": payload_to_wire(message.payload),
        "client_id": message.client_id,
        "xid": message.xid,
        "send_time": message.send_time,
        "data_bytes": message.data_bytes,
        "reply_data_bytes": message.reply_data_bytes,
    }


def request_from_wire(obj: _t.Dict[str, _t.Any], reply_event: _t.Any) -> RpcMessage:
    """Rebuild a server-side :class:`RpcMessage` from a request frame.

    ``reply_event`` is substrate-supplied (the server port triggers it
    to emit the reply frame back down the originating connection).
    """
    return RpcMessage(
        kind=obj["kind"],
        payload=payload_from_wire(obj["payload"]),
        client_id=obj["client_id"],
        reply_event=reply_event,
        send_time=obj["send_time"],
        data_bytes=obj["data_bytes"],
        reply_data_bytes=obj["reply_data_bytes"],
        xid=obj["xid"],
    )
