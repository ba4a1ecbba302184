"""The live shard's split of one socket read into service groups.

``split_groups`` cuts the requests decoded from one read into
``min(num_daemons, ceil(k / g))`` contiguous groups of near-equal size,
``g = ceil(WAIT_RESOLUTION / (svc_message + svc_op))``; each group is
served under one modelled service delay.
"""

import math

import pytest

from repro.mds.server import MdsParameters
from repro.rt.server import group_size, split_groups

DEFAULT = MdsParameters(num_daemons=4)


def _sizes(count, params):
    groups = split_groups(list(range(count)), params)
    assert [x for group in groups for x in group] == list(range(count))
    return [len(group) for group in groups]


@pytest.mark.parametrize(
    "count, sizes",
    [
        (1, [1]),
        (7, [7]),
        (8, [4, 4]),
        (16, [6, 5, 5]),
        (64, [16, 16, 16, 16]),
    ],
)
def test_default_parameters_give_groups_of_seven(count, sizes):
    assert group_size(DEFAULT) == 7
    assert _sizes(count, DEFAULT) == sizes


def test_group_size_follows_the_service_costs():
    doubled = MdsParameters(
        num_daemons=4, svc_message=220e-6, svc_op=100e-6, svc_apply=40e-6
    )
    assert group_size(doubled) == 4
    assert _sizes(5, doubled) == [3, 2]
    assert _sizes(5, DEFAULT) == [5]


def test_free_service_is_one_group():
    free = MdsParameters(
        num_daemons=4, svc_message=0.0, svc_op=0.0, svc_apply=0.0
    )
    assert group_size(free) == 0
    assert _sizes(1, free) == [1]
    assert _sizes(64, free) == [64]


@pytest.mark.parametrize("daemons", [1, 2, 4, 8])
def test_split_keeps_order_and_shares_fairly(daemons):
    params = MdsParameters(num_daemons=daemons)
    size = group_size(params)
    for count in range(1, 130):
        sizes = _sizes(count, params)  # order is checked inside
        assert len(sizes) == min(daemons, math.ceil(count / size))
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
