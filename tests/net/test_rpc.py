"""Tests for RPC transport, inbox delivery and compound sizing."""

import pytest

from repro.net.link import Link
from repro.net.messages import (
    MESSAGE_HEADER_BYTES,
    OP_BODY_BYTES,
    CommitOp,
    CommitPayload,
    CreatePayload,
    RpcMessage,
)
from repro.net.rpc import (
    RetryPolicy,
    RpcClient,
    RpcServerPort,
    RpcTimeoutError,
    RpcTransport,
)
from repro.core.kernel.events import Event
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_stack(env):
    up = Link(env, bandwidth=125e6, propagation=50e-6)
    down = Link(env, bandwidth=125e6, propagation=50e-6)
    port = RpcServerPort(env)
    transport = RpcTransport(env, up, down, port)
    client = RpcClient(env, client_id=0, transport=transport)
    return client, port


def echo_server(env, port):
    """A trivial server replying 'ack' to everything instantly."""
    while True:
        (msg,) = yield port.next_group()
        port.reply(msg, ("ack", msg.kind))


def test_round_trip(env):
    client, port = make_stack(env)
    env.process(echo_server(env, port))
    results = []

    def caller(env):
        reply = yield client.call("create", CreatePayload(name="f1"))
        results.append((env.now, reply))

    env.process(caller(env))
    env.run(until=1.0)
    assert results
    t, reply = results[0]
    assert reply == ("ack", "create")
    assert t > 100e-6  # at least two propagation delays


def test_inbox_queues_when_no_daemon(env):
    client, port = make_stack(env)

    def caller(env):
        client.call("create", CreatePayload(name="f1"))
        yield env.timeout(0.01)

    env.process(caller(env))
    env.run()
    assert port.queue_length == 1
    assert port.requests_received == 1


@pytest.mark.parametrize("waiting", [0, 1, 3])
def test_a_delivery_schedules_one_event_per_daemon_it_serves(env, waiting):
    port = RpcServerPort(env)
    served = []

    def daemon():
        served.append((yield port.next_group()))

    for _ in range(waiting):
        env.process(daemon())
    env.run()  # every daemon parks on its get
    messages = [
        RpcMessage(
            kind="create",
            payload=CreatePayload(name=f"f{i}"),
            client_id=0,
            reply_event=Event(env),
            send_time=0.0,
        )
        for i in range(5)
    ]
    before = env.scheduled_events
    port.deliver(*messages)
    # One event per get served; queueing the delivery itself makes none.
    assert env.scheduled_events - before == waiting
    env.run()
    assert served == [(message,) for message in messages[:waiting]]
    assert port.queue_length == 5 - waiting
    assert port.requests_received == 5


def test_compound_message_sizes(env):
    ops = [CommitOp(file_id=i, extents=[]) for i in range(3)]
    msg = RpcMessage(
        kind="commit",
        payload=CommitPayload(ops=ops),
        client_id=0,
        reply_event=Event(env),
        send_time=0.0,
    )
    assert msg.op_count() == 3
    assert msg.request_size() == MESSAGE_HEADER_BYTES + 3 * OP_BODY_BYTES


def test_compound_cheaper_than_singles(env):
    """Three ops in one RPC must use fewer wire bytes than three RPCs."""

    def msg(ops):
        return RpcMessage(
            kind="commit",
            payload=CommitPayload(
                ops=[CommitOp(file_id=i, extents=[]) for i in range(ops)]
            ),
            client_id=0,
            reply_event=Event(env),
            send_time=0.0,
        )

    compound = msg(3).request_size() + msg(3).reply_size()
    singles = 3 * (msg(1).request_size() + msg(1).reply_size())
    assert compound < singles


def test_client_op_accounting(env):
    client, port = make_stack(env)
    env.process(echo_server(env, port))

    def caller(env):
        yield client.call(
            "commit",
            CommitPayload(ops=[CommitOp(file_id=i, extents=[]) for i in range(4)]),
        )
        yield client.call("create", CreatePayload(name="x"))

    env.process(caller(env))
    env.run(until=1.0)
    assert client.calls_sent == 2
    assert client.ops_sent == 5


def test_multiple_clients_share_inbox(env):
    up1 = Link(env)
    up2 = Link(env)
    down = Link(env)
    port = RpcServerPort(env)
    c1 = RpcClient(env, 1, RpcTransport(env, up1, down, port))
    c2 = RpcClient(env, 2, RpcTransport(env, up2, down, port))
    served = []

    def server(env):
        while True:
            (msg,) = yield port.next_group()
            served.append(msg.client_id)
            port.reply(msg, None)

    def caller(env, client):
        yield client.call("create", CreatePayload(name=f"f{client.client_id}"))

    env.process(server(env))
    env.process(caller(env, c1))
    env.process(caller(env, c2))
    env.run(until=1.0)
    assert sorted(served) == [1, 2]


# -- fault tolerance: timeouts, retransmission, reply routing ----------------


class ScriptedFaults:
    """Deterministic stand-in for repro.faults.LinkFaults."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def verdict(self, link):
        if self.verdicts:
            return self.verdicts.pop(0)
        return (False, 0.0)


def make_retry_stack(env, retry, client_id=0):
    up = Link(env, name="up", bandwidth=125e6, propagation=50e-6)
    down = Link(env, name="down", bandwidth=125e6, propagation=50e-6)
    port = RpcServerPort(env)
    transport = RpcTransport(env, up, down, port)
    client = RpcClient(
        env, client_id=client_id, transport=transport, retry=retry
    )
    return client, port, up, down


def test_retry_policy_backoff_and_cap():
    policy = RetryPolicy(
        base_timeout=0.01, max_timeout=0.05, multiplier=2.0, jitter=0.0
    )
    timeouts = [policy.timeout_for(n, None) for n in range(6)]
    assert timeouts[:3] == [0.01, 0.02, 0.04]
    assert all(t == 0.05 for t in timeouts[3:])


def test_reply_routes_through_registered_transport(env):
    # RpcClient registers its transport at construction, so the server's
    # reply finds it.
    client, port, _, _ = make_retry_stack(env, retry=None)

    def server(env):
        (msg,) = yield port.next_group()
        port.reply(msg, "routed")

    env.process(server(env))
    results = []

    def caller(env):
        results.append((yield client.call("create", CreatePayload("f"))))

    env.process(caller(env))
    env.run(until=1.0)
    assert results == ["routed"]


def test_retry_recovers_a_lost_request(env):
    policy = RetryPolicy(base_timeout=0.01, jitter=0.0)
    client, port, up, _ = make_retry_stack(env, retry=policy)
    up.faults = ScriptedFaults([(True, 0.0)])  # eat the first request

    def server(env):
        while True:
            (msg,) = yield port.next_group()
            port.reply(msg, "ok")

    env.process(server(env))
    results = []

    def caller(env):
        results.append((yield client.call("create", CreatePayload("f"))))

    env.process(caller(env))
    env.run(until=1.0)
    assert results == ["ok"]
    assert client.timeouts == 1
    assert client.retries == 1
    assert client.consecutive_timeouts == 0  # reset by the success


def test_duplicate_replies_are_harmless(env):
    # A retransmitted request can be answered twice (once per copy the
    # server saw); only the first reply may complete the event.
    policy = RetryPolicy(base_timeout=0.01, jitter=0.0)
    client, port, _, _ = make_retry_stack(env, retry=policy)

    def double_server(env):
        while True:
            (msg,) = yield port.next_group()
            port.reply(msg, "first")
            port.reply(msg, "first")

    env.process(double_server(env))
    results = []

    def caller(env):
        results.append((yield client.call("create", CreatePayload("f"))))

    env.process(caller(env))
    env.run(until=1.0)
    assert results == ["first"]
    assert port.replies_sent == 2


def test_max_attempts_exhaustion_raises(env):
    policy = RetryPolicy(base_timeout=0.005, jitter=0.0, max_attempts=3)
    client, port, _, _ = make_retry_stack(env, retry=policy)
    # No server daemon: requests queue, nobody ever replies.
    failures = []

    def caller(env):
        try:
            yield client.call("create", CreatePayload("f"))
        except RpcTimeoutError as exc:
            failures.append(exc)

    env.process(caller(env))
    env.run(until=1.0)
    assert len(failures) == 1
    assert client.timeouts == 3


def test_stopped_client_parks_forever(env):
    policy = RetryPolicy(base_timeout=0.005, jitter=0.0)
    client, port, _, _ = make_retry_stack(env, retry=policy)
    client.stop()

    def caller(env):
        yield client.call("create", CreatePayload("f"))
        raise AssertionError("a dead client's call must never return")

    proc = env.process(caller(env))
    env.run(until=1.0)
    assert proc.is_alive
    assert port.requests_received == 0  # dead node transmitted nothing


def test_server_port_fail_drops_queued_and_arriving(env):
    client, port, _, _ = make_retry_stack(env, retry=None)

    def caller(env):
        client.call("create", CreatePayload("a"))
        client.call("create", CreatePayload("b"))
        yield env.timeout(0.01)

    env.process(caller(env))
    env.run()
    assert port.queue_length == 2
    lost = port.fail()
    assert lost == 2
    assert port.queue_length == 0
    msg = RpcMessage(
        kind="create",
        payload=CreatePayload("c"),
        client_id=0,
        reply_event=Event(env),
        send_time=env.now,
    )
    port.deliver(msg)  # arrives while down: dropped on the floor
    assert port.dropped_while_down == 1
    assert port.queue_length == 0
    port.resume()
    port.deliver(msg)
    assert port.queue_length == 1
