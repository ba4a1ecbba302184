"""Tests for the elevator scheduler and request merging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel.events import Event
from repro.sim import Environment
from repro.storage.scheduler import BlockRequest, ElevatorScheduler


def make_request(env, start, length, op="write", client=0, file_id=0):
    return BlockRequest(
        op=op,
        start=start,
        length=length,
        client_id=client,
        file_id=file_id,
        submit_time=env.now,
        completion=Event(env),
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def sched(env):
    return ElevatorScheduler(env, client_id=0)


def test_request_validation(env):
    with pytest.raises(ValueError):
        make_request(env, -1, 10)
    with pytest.raises(ValueError):
        make_request(env, 0, 0)
    with pytest.raises(ValueError):
        BlockRequest(
            op="scrub",
            start=0,
            length=1,
            client_id=0,
            file_id=0,
            submit_time=0,
            completion=Event(env),
        )


def test_back_merge(env, sched):
    a = make_request(env, 0, 4096)
    b = make_request(env, 4096, 4096)
    sched.submit(a)
    sched.submit(b)
    assert len(sched) == 1
    assert sched.stats.merges == 1
    merged = sched.pop_next(0)
    assert merged is a
    assert merged.length == 8192
    assert merged.merged == [b]
    assert merged.count_all() == 2


def test_front_merge(env, sched):
    a = make_request(env, 4096, 4096)
    b = make_request(env, 0, 4096)
    sched.submit(a)
    sched.submit(b)
    assert len(sched) == 1
    assert sched.stats.merges == 1
    merged = sched.pop_next(0)
    assert merged is b
    assert merged.start == 0 and merged.length == 8192


def test_non_contiguous_do_not_merge(env, sched):
    sched.submit(make_request(env, 0, 4096))
    sched.submit(make_request(env, 8192, 4096))
    assert len(sched) == 2
    assert sched.stats.merges == 0


def test_mixed_ops_do_not_merge(env, sched):
    sched.submit(make_request(env, 0, 4096, op="write"))
    sched.submit(make_request(env, 4096, 4096, op="read"))
    assert len(sched) == 2


def test_merge_respects_size_cap(env):
    sched = ElevatorScheduler(Environment(), 0, max_merge_bytes=8192)
    env2 = sched.env
    sched.submit(make_request(env2, 0, 8192))
    sched.submit(make_request(env2, 8192, 4096))
    assert len(sched) == 2  # would exceed the cap


def test_chain_of_merges(env, sched):
    for i in range(8):
        sched.submit(make_request(env, i * 4096, 4096))
    assert len(sched) == 1
    req = sched.pop_next(0)
    assert req.length == 8 * 4096
    assert req.count_all() == 8
    assert sched.stats.merge_ratio == 8.0


def test_complete_all_fires_every_submission(env, sched):
    reqs = [make_request(env, i * 4096, 4096) for i in range(4)]
    for r in reqs:
        sched.submit(r)
    merged = sched.pop_next(0)
    merged.complete_all()
    env.run()
    assert all(r.completion.processed for r in reqs)


def test_clook_order(env, sched):
    for start in [40960, 8192, 81920, 0]:
        sched.submit(make_request(env, start, 4096))
    # Head at 10000: next >= 10000 is 40960, then 81920, wrap to 0, 8192.
    order = [sched.pop_next(10000).start for _ in range(2)]
    assert order == [40960, 81920]
    order2 = [sched.pop_next(81920 + 4096).start for _ in range(2)]
    assert order2 == [0, 8192]


def test_pop_empty_raises(sched):
    with pytest.raises(IndexError):
        sched.pop_next(0)


def test_on_submit_callback(env, sched):
    stripe = 64 * 1024
    sched.set_spindle_map(lambda start: start // stripe)
    calls = []
    sched.on_submit = lambda spindles: calls.append(sorted(spindles))
    sched.submit(make_request(env, 0, 4096))
    sched.submit(make_request(env, 4096, 4096))  # merges, still notifies
    assert calls == [[0], [0]]
    # A front merge across the stripe boundary moves the pair to the new
    # start's spindle: both are reported.
    sched.submit(make_request(env, stripe, 4096))
    sched.submit(make_request(env, stripe - 4096, 4096))
    assert calls[2:] == [[1], [0, 1]]
    assert not sched.has_request_for_spindle(1)
    # drop_all reports through on_drop, never on_submit (nothing to wake).
    drops = []
    sched.on_drop = lambda spindles: drops.append(sorted(spindles))
    assert sched.drop_all() == 2
    assert drops == [[0]] and len(calls) == 4


def test_merge_ratio_with_no_traffic(sched):
    assert sched.stats.merge_ratio == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 8)),
        min_size=1,
        max_size=40,
    )
)
def test_merging_conserves_bytes_and_requests(spec):
    """Merging must never lose or duplicate requests or bytes."""
    env = Environment()
    sched = ElevatorScheduler(env, 0, max_merge_bytes=1 << 30)
    total_bytes = 0
    page = 4096
    for slot, pages in spec:
        req = make_request(env, slot * page, pages * page)
        total_bytes += pages * page
        sched.submit(req)
    popped = []
    head = 0
    while len(sched):
        req = sched.pop_next(head)
        head = req.end
        popped.append(req)
    assert sum(r.length for r in popped) >= total_bytes  # overlaps may pad
    assert sum(r.count_all() for r in popped) == len(spec)
    assert sched.stats.submitted == len(spec)
    assert sched.stats.dispatched == len(popped)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=50, unique=True)
)
def test_disjoint_submissions_conserve_exact_bytes(slots):
    """With non-overlapping requests, merged bytes match submitted bytes."""
    env = Environment()
    sched = ElevatorScheduler(env, 0, max_merge_bytes=1 << 30)
    page = 4096
    for slot in slots:
        sched.submit(make_request(env, slot * page, page))
    popped = []
    head = 0
    while len(sched):
        req = sched.pop_next(head)
        head = req.end
        popped.append(req)
    assert sum(r.length for r in popped) == len(slots) * page
    assert sum(r.count_all() for r in popped) == len(slots)
