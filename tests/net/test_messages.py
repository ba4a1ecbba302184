"""Wire-size model tests: what compounding actually saves."""

import pytest

from repro.net.messages import (
    MESSAGE_HEADER_BYTES,
    OP_BODY_BYTES,
    REPLY_BODY_BYTES,
    CommitOp,
    CommitPayload,
    CreatePayload,
    LayoutGetPayload,
    RpcMessage,
)
from repro.core.kernel.events import Event
from repro.sim import Environment


def msg(payload, data_bytes=0, reply_data_bytes=0):
    env = Environment()
    return RpcMessage(
        kind="x",
        payload=payload,
        client_id=0,
        reply_event=Event(env),
        send_time=0.0,
        data_bytes=data_bytes,
        reply_data_bytes=reply_data_bytes,
    )


def test_simple_payload_sizes():
    m = msg(CreatePayload(name="f"))
    assert m.op_count() == 1
    assert m.request_size() == MESSAGE_HEADER_BYTES + OP_BODY_BYTES
    assert m.reply_size() == MESSAGE_HEADER_BYTES + REPLY_BODY_BYTES


def test_compound_scales_with_ops():
    for k in (1, 3, 6, 8):
        ops = [CommitOp(file_id=i, extents=[]) for i in range(k)]
        m = msg(CommitPayload(ops=ops))
        assert m.op_count() == k
        assert m.request_size() == MESSAGE_HEADER_BYTES + k * OP_BODY_BYTES


def test_empty_compound_counts_one_op():
    m = msg(CommitPayload(ops=[]))
    assert m.op_count() == 1  # a degenerate message still has a body


def test_compound_saving_formula():
    """k compounded ops save exactly (k-1) headers each way."""

    def wire(k):
        ops = [CommitOp(file_id=i, extents=[]) for i in range(k)]
        m = msg(CommitPayload(ops=ops))
        return m.request_size() + m.reply_size()

    k = 6
    singles = k * wire(1)
    compound = wire(k)
    assert singles - compound == 2 * (k - 1) * MESSAGE_HEADER_BYTES


def test_bulk_data_rides_the_wire():
    m = msg(LayoutGetPayload(file_id=1, offset=0, length=4096),
            data_bytes=32768)
    assert m.request_size() == (
        MESSAGE_HEADER_BYTES + OP_BODY_BYTES + 32768
    )
    m2 = msg(LayoutGetPayload(file_id=1, offset=0, length=4096),
             reply_data_bytes=32768)
    assert m2.reply_size() == (
        MESSAGE_HEADER_BYTES + REPLY_BODY_BYTES + 32768
    )


def test_commit_payload_degree():
    p = CommitPayload(ops=[CommitOp(file_id=1, extents=[])] * 4)
    assert p.degree == 4
    assert CommitPayload().degree == 0
