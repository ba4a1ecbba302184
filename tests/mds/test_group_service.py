"""Group service in virtual time: one parse timer, one lock grant and one
apply timer per inbox group, every request still accounted on its own.

These tests deliver several requests at once, the way a live shard does
per socket read, on :class:`~repro.sim.Environment` given the live
substrate's ``resolution`` (so groups form), where the cost is exact.
How groups are formed is ``tests/rt/test_shard_groups.py``'s subject.
"""

from repro.core.kernel.events import Event
from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.net.messages import CreatePayload, RpcMessage
from repro.net.rpc import RpcServerPort
from repro.rt.effects import AsyncioEffects
from repro.sim import Environment


class RecordingEnv(Environment):
    """Records the delay of every timeout it hands out."""

    resolution = AsyncioEffects.resolution

    def __init__(self):
        super().__init__()
        self.delays = []

    def timeout(self, delay, value=None):
        self.delays.append(delay)
        return super().timeout(delay, value)


class Replies:
    """A reply transport that records when each reply left."""

    def __init__(self, env):
        self.env = env
        self.seen = []

    def send_reply(self, message):
        self.seen.append((self.env.now, message.xid, message.result.name))


def _creates(env, count):
    return [
        RpcMessage(
            kind="create",
            payload=CreatePayload(name=f"f{xid}"),
            client_id=1,
            reply_event=Event(env),
            send_time=0.0,
            xid=xid,
        )
        for xid in range(1, count + 1)
    ]


def _server(env):
    return MetadataServer(
        env,
        MdsParameters(num_daemons=2),
        Namespace(),
        SpaceManager(volume_size=1 << 20),
        RpcServerPort(env),
    )


def test_a_group_costs_one_parse_one_lock_grant_one_apply():
    env = RecordingEnv()
    server = _server(env)
    grants = []
    request = server._lock.request
    server._lock.request = lambda: grants.append(env.now) or request()
    replies = Replies(env)
    server.port.register(1, replies)

    server.port.deliver(*_creates(env, 3))
    env.run()

    params = server.params
    # One daemon active: only the pool-size overhead scales the costs.
    scale = 1.0 + params.pool_overhead * (params.num_daemons - 1)
    parse = (3 * params.svc_message + 3 * params.svc_op) * scale
    apply = 3 * params.svc_apply * scale
    assert env.delays == [parse, apply]
    assert grants == [parse]
    assert replies.seen == [
        (parse + apply, 1, "f1"),
        (parse + apply, 2, "f2"),
        (parse + apply, 3, "f3"),
    ]
    assert server.requests_processed == 3
    assert server.groups_served == 1
    assert server.ops_processed == 3
    assert server.service_hist.count == 3
    assert server.busy_time == parse + apply  # one daemon, one group


def test_the_port_counts_a_group_as_its_requests():
    env = Environment()
    port = RpcServerPort(env)
    port.deliver(*_creates(env, 3))
    assert (port.requests_received, port.queue_length) == (3, 3)
    assert port.fail() == 3
    assert port.queue_length == 0

    port.deliver(*_creates(env, 3))  # while down
    assert port.dropped_while_down == 3

    port.resume()
    port.partition_windows = [(0.0, 1.0)]
    port.deliver(*_creates(env, 3))  # while partitioned
    assert port.partition_drops == 3
    assert port.queue_length == 0
    assert port.requests_received == 3
