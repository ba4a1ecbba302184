"""Round-trip property tests for the rt wire codec.

Every payload type in :mod:`repro.net.messages` and every reply type the
MDS produces must survive ``encode_frame`` -> TCP-style rechunking ->
``FrameDecoder`` -> ``payload_from_wire`` unchanged; truncated and
oversized frames must be rejected, never misparsed.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mds.extent import Chunk, Extent
from repro.mds.namespace import FileMeta
from repro.mds.server import LayoutReply
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    ReleasePayload,
    RpcMessage,
    UnlinkPayload,
)
from repro.net.wire import (
    MAX_FRAME,
    FrameDecoder,
    FrameError,
    encode_frame,
    payload_from_wire,
    payload_to_wire,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)

ids = st.integers(min_value=1, max_value=1 << 40)
offsets = st.integers(min_value=0, max_value=1 << 40)
lengths = st.integers(min_value=1, max_value=1 << 24)
times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
names = st.text(min_size=1, max_size=40)

extents = st.builds(
    Extent,
    file_offset=offsets,
    length=lengths,
    device_id=st.integers(min_value=0, max_value=15),
    volume_offset=offsets,
    state=st.sampled_from(["new", "committed"]),
)

commit_ops = st.builds(
    CommitOp,
    file_id=ids,
    extents=st.lists(extents, max_size=4),
    enqueue_time=times,
    trace_ids=st.tuples(),
    op_id=st.one_of(st.none(), ids),
)

payloads = st.one_of(
    st.builds(CreatePayload, name=names),
    st.builds(GetattrPayload, file_id=ids),
    st.builds(
        LayoutGetPayload,
        file_id=ids,
        offset=offsets,
        length=lengths,
        allocate=st.booleans(),
        delegation_hint=st.booleans(),
        scattered=st.booleans(),
    ),
    st.builds(
        DelegationPayload,
        chunk_size=lengths,
        shard=st.integers(min_value=0, max_value=7),
    ),
    st.builds(CommitPayload, ops=st.lists(commit_ops, max_size=4)),
    st.builds(
        ReleasePayload,
        chunks=st.lists(st.tuples(offsets, lengths), max_size=4),
        shard=st.integers(min_value=0, max_value=7),
    ),
    st.builds(UnlinkPayload, file_id=ids),
)

results = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.booleans(), max_size=8),
    st.builds(
        FileMeta,
        file_id=ids,
        name=names,
        ctime=times,
        mtime=times,
        size=offsets,
        extents=st.lists(extents, max_size=4),
    ),
    st.builds(Chunk, volume_offset=offsets, length=lengths),
    st.builds(
        LayoutReply,
        extents=st.lists(extents, max_size=4),
        chunk=st.one_of(
            st.none(),
            st.builds(Chunk, volume_offset=offsets, length=lengths),
        ),
    ),
)


@settings(max_examples=150, deadline=None)
@given(payload=payloads, data=st.data())
def test_payload_roundtrip_through_rechunked_frames(payload, data):
    """Payload -> frame -> arbitrary TCP chunking -> identical payload."""
    wire = encode_frame(payload_to_wire(payload))
    cut = data.draw(
        st.integers(min_value=0, max_value=len(wire)), label="cut"
    )
    decoder = FrameDecoder()
    frames = decoder.feed(wire[:cut])
    frames += decoder.feed(wire[cut:])
    assert len(frames) == 1
    assert payload_from_wire(frames[0]) == payload
    assert decoder.pending_bytes == 0


@settings(max_examples=150, deadline=None)
@given(result=results)
def test_result_roundtrip(result):
    decoder = FrameDecoder()
    (frame,) = decoder.feed(encode_frame(result_to_wire(result)))
    assert result_from_wire(frame) == result


@settings(max_examples=50, deadline=None)
@given(payload=payloads, xid=ids, client_id=ids)
def test_request_roundtrip(payload, xid, client_id):
    message = RpcMessage(
        kind="x",
        payload=payload,
        client_id=client_id,
        reply_event=None,
        send_time=1.5,
        xid=xid,
    )
    decoder = FrameDecoder()
    (frame,) = decoder.feed(encode_frame(request_to_wire(message)))
    rebuilt = request_from_wire(frame, reply_event=object())
    assert rebuilt.payload == payload
    assert rebuilt.xid == xid
    assert rebuilt.client_id == client_id
    assert rebuilt.send_time == message.send_time


def test_truncated_frame_waits_for_more_bytes():
    wire = encode_frame({"type": "unlink", "file_id": 7})
    decoder = FrameDecoder()
    assert decoder.feed(wire[:-1]) == []
    assert decoder.pending_bytes == len(wire) - 1
    (frame,) = decoder.feed(wire[-1:])
    assert frame["file_id"] == 7


def test_bare_length_prefix_is_not_a_frame():
    decoder = FrameDecoder()
    assert decoder.feed(struct.pack(">I", 10)) == []
    assert decoder.feed(b"") == []
    assert decoder.pending_bytes == 4


def test_oversized_length_prefix_rejected_before_buffering():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(struct.pack(">I", MAX_FRAME + 1) + b"x" * 16)


def test_oversized_body_rejected_at_encode():
    with pytest.raises(FrameError):
        encode_frame({"blob": "y" * (MAX_FRAME + 1)})


def test_undecodable_body_rejected():
    body = b"\xff\xfe not json"
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(struct.pack(">I", len(body)) + body)


def test_two_frames_in_one_feed():
    a = encode_frame({"type": "getattr", "file_id": 1})
    b = encode_frame({"type": "getattr", "file_id": 2})
    frames = FrameDecoder().feed(a + b)
    assert [f["file_id"] for f in frames] == [1, 2]


def test_many_small_frames_in_one_chunk():
    """What tick coalescing puts on the wire: one chunk holding
    thousands of frames and the head of the next one."""
    count = 12_000
    chunk = b"".join(
        encode_frame({"type": "getattr", "file_id": i}) for i in range(count)
    )
    tail = encode_frame({"type": "unlink", "file_id": 7})
    decoder = FrameDecoder()
    frames = decoder.feed(chunk + tail[:-3])
    assert [f["file_id"] for f in frames] == list(range(count))
    assert decoder.pending_bytes == len(tail) - 3
    assert decoder.feed(tail[-3:]) == [{"type": "unlink", "file_id": 7}]
    assert decoder.pending_bytes == 0


@pytest.mark.parametrize(
    "bad",
    [
        struct.pack(">I", MAX_FRAME + 1) + b"x" * 16,
        struct.pack(">I", 4) + b"\xff\xfe{}",
    ],
    ids=["oversized", "undecodable"],
)
def test_bad_frame_behind_good_ones_still_rejected(bad):
    good = encode_frame({"type": "getattr", "file_id": 1})
    with pytest.raises(FrameError):
        FrameDecoder().feed(good + good + bad)


def test_unknown_payload_and_result_types_rejected():
    with pytest.raises(FrameError):
        payload_from_wire({"type": "mystery"})
    with pytest.raises(FrameError):
        result_from_wire({"type": "mystery"})


def test_frames_are_plain_json():
    wire = encode_frame(payload_to_wire(CreatePayload(name="f")))
    assert json.loads(wire[4:].decode()) == {"type": "create", "name": "f"}
