"""The service groups a live shard's MDS inbox forms.

Driven through :class:`RpcServerPort` and :class:`MetadataServer` on a
virtual clock given the live substrate's ``resolution``, so the groups
are exact.  With ``n`` requests queued, ``w`` daemons waiting and the
port's limit ``g = max(1, ceil(resolution / (svc_message + svc_op)))``
-- 7 at the default costs -- a served daemon takes ``min(g, ceil(n /
m))`` requests in arrival order, ``m = min(w, ceil(n / g))``.
"""

import math
import types

import pytest

from repro.core.kernel.events import Event
from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.net.messages import CreatePayload, RpcMessage
from repro.net.rpc import RpcServerPort
from repro.rt.effects import AsyncioEffects
from repro.sim import Environment

DEFAULT = MdsParameters(num_daemons=4)


class LiveResolution(Environment):
    """Virtual time with the live substrate's shortest wait."""

    resolution = AsyncioEffects.resolution


def _creates(env, count, first=1):
    return [
        RpcMessage(
            kind="create",
            payload=CreatePayload(name=f"f{xid}"),
            client_id=1,
            reply_event=Event(env),
            send_time=0.0,
            xid=xid,
        )
        for xid in range(first, first + count)
    ]


def _idle_server(env, params=DEFAULT):
    """A server whose daemons are all parked on the inbox, and the
    ``(time, xids)`` of every group they take from then on."""
    server = MetadataServer(
        env,
        params,
        Namespace(),
        SpaceManager(volume_size=1 << 20),
        RpcServerPort(env),
    )
    server.port.register(1, types.SimpleNamespace(send_reply=lambda m: None))
    groups = []
    next_group = server.port.next_group

    def recording():
        get = next_group()
        get.callbacks.append(
            lambda ev: groups.append((env.now, [m.xid for m in ev.value]))
        )
        return get

    server.port.next_group = recording
    env.run()
    assert groups == []
    return server, groups


def _serve(params, *deliveries, env_type=LiveResolution):
    """Group sizes for ``deliveries`` (request counts, one instant)."""
    env = env_type()
    server, groups = _idle_server(env, params)
    first = 1
    for count in deliveries:
        server.port.deliver(*_creates(env, count, first))
        first += count
    env.run()
    assert [x for _at, xids in groups for x in xids] == list(range(1, first))
    assert server.groups_served == len(groups)
    assert server.requests_processed == first - 1
    return [len(xids) for _at, xids in groups], groups


@pytest.mark.parametrize(
    "count, sizes",
    [
        (1, [1]),
        (7, [7]),
        (8, [4, 4]),
        (16, [6, 5, 5]),
        (64, [7] * 9 + [1]),
    ],
)
def test_default_parameters_give_groups_of_seven(count, sizes):
    assert _idle_server(LiveResolution())[0].port.inbox.group_limit == 7
    assert _serve(DEFAULT, count)[0] == sizes


def test_group_limit_follows_the_service_costs():
    doubled = MdsParameters(
        num_daemons=4, svc_message=220e-6, svc_op=100e-6, svc_apply=40e-6
    )
    server, _groups = _idle_server(LiveResolution(), doubled)
    assert server.port.inbox.group_limit == 4
    assert _serve(doubled, 5)[0] == [3, 2]
    assert _serve(DEFAULT, 5)[0] == [5]


def test_free_service_is_one_group():
    free = MdsParameters(
        num_daemons=4, svc_message=0.0, svc_op=0.0, svc_apply=0.0
    )
    assert _serve(free, 1)[0] == [1]
    assert _serve(free, 64)[0] == [64]


@pytest.mark.parametrize("daemons", [1, 2, 4, 8])
def test_split_keeps_order_and_shares_fairly(daemons):
    """Idle daemons share one delivery in near-equal groups, largest
    first; what they leave queued goes in groups of at most ``g``."""
    params = MdsParameters(num_daemons=daemons)
    for count in range(1, 130):
        sizes, groups = _serve(params, count)  # order is checked inside
        shared = [len(xids) for at, xids in groups if at == 0.0]
        assert len(shared) == min(daemons, math.ceil(count / 7))
        assert max(shared) - min(shared) <= 1
        assert shared == sorted(shared, reverse=True)
        assert max(sizes) <= 7


def test_busy_daemons_take_groups_across_deliveries():
    """Four single requests occupy the four daemons; the two deliveries
    of five behind them are served as 7 + 3, not 5 + 5."""
    sizes, _groups = _serve(DEFAULT, 1, 1, 1, 1, 5, 5)
    assert sizes == [1, 1, 1, 1, 7, 3]


def test_a_limit_of_one_serves_in_arrival_order():
    """The simulator's resolution is 0: groups of one, as ever.  Ports
    no MDS serves (nfs3, pvfs2) keep the limit of one too."""
    assert _serve(DEFAULT, 6, env_type=Environment)[0] == [1] * 6
    assert RpcServerPort(LiveResolution()).inbox.group_limit == 1
