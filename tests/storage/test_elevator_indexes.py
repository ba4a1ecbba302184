"""The elevator's deadline-scheduler indexes.

Three properties:

- the indexed queue answers every operation exactly as the scanning one
  kept in ``tests/storage/reference_elevator.py``: the same request
  popped (by identity), the same ``sync`` flags, the same spindle sets
  through ``on_submit`` / ``on_drop``;
- each entry point reads only the queued requests it touches: on a
  queue of 4 000 writes an ``fsync`` kick reads its file's requests, an
  idle memory-pressure kick reads none and a deadline pick a handful;
- the indexes hold the live queue and nothing else, however long the
  queue churns.
"""

import collections
import dataclasses
import random
import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.scheduler import READ, WRITE, BlockRequest, ElevatorScheduler
from tests.storage.reference_elevator import ScanningElevator

STRIPE = 64 * 1024
UNIT = 16 * 1024  # four units per stripe
SPINDLES = 4


def spindle_of(start):
    return (start // STRIPE) % SPINDLES


def make_env():
    """All an elevator reads of its substrate."""
    return types.SimpleNamespace(now=0.0, obs=None)


def request(env, op, start, length=UNIT, file_id=0, sync=False, gen=0,
            cls=BlockRequest):
    return cls(
        op=op,
        start=start,
        length=length,
        client_id=0,
        file_id=file_id,
        submit_time=env.now,
        completion=None,
        sync=sync,
        write_generation=gen,
    )


def assert_indexes_exact(sched):
    """Every index holds exactly the queued requests, in order."""
    queued = sched.pending
    by_file = {
        f: list(heads.values()) if isinstance(heads, dict) else [heads]
        for f, heads in sched._writes_by_file.items()
    }
    # One queued write is stored bare, several in a dict keyed by id.
    assert all(
        len(heads) == 1 or set(sched._writes_by_file[f]) == set(map(id, heads))
        for f, heads in by_file.items()
    )
    assert all(
        isinstance(sched._writes_by_file[f], dict) == (len(heads) > 1)
        for f, heads in by_file.items()
    )
    listed = [r for heads in by_file.values() for r in heads]
    writes = [r for r in queued if r.op == WRITE]
    assert sorted(map(id, listed)) == sorted(map(id, writes))
    assert all(r.file_id == f for f, heads in by_file.items() for r in heads)
    assert set(sched._plugged) == {
        id(r) for r in queued if r.op == WRITE and not r.sync
    }
    entries = [e for orders in sched._due.values() for o in orders.values()
               for e in o]
    if sched.spindle_map is None:
        assert not entries
        return
    assert len(entries) == len(queued)
    for cls, orders in sched._due.items():
        for sp, order in orders.items():
            assert order == sorted(order)
            view = sched._sp_queue.get(sp, [])
            assert sorted(id(e[3]) for e in order) == sorted(
                id(r) for r in view if r.op == cls
            )
    for view in sched._sp_queue.values():
        # Deadline ties are broken by (start, queue_rank): view order.
        keys = [(r.start, r.queue_rank) for r in view]
        assert keys == sorted(keys)


# -- the indexed queue against the scanning one ------------------------------

_SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from([READ, WRITE, WRITE, WRITE]),
    # Unit address: 12 stripes; half either side of a stripe boundary,
    # so that merges, and front merges across one, are common.
    st.one_of(st.sampled_from([3, 4, 7, 8]), st.integers(0, 47)),
    st.integers(1, 2),  # units long
    st.integers(0, 3),  # file
    st.booleans(),  # sync
    st.sampled_from([0, 0, 0, 1]),  # write generation
)
_POP = st.tuples(
    st.just("pop"),
    st.sampled_from([READ, WRITE, None]),
    st.integers(0, 48),  # head position, in units
    # 0.8 outlasts the 0.5 s write deadline: expired but still plugged.
    st.sampled_from([0.0, 0.012, 0.3, 0.8]),
    st.integers(0, SPINDLES - 1),
)
_OTHER = st.one_of(
    st.tuples(st.just("pop_next"), st.integers(0, 48)),
    st.tuples(st.just("expedite_file"), st.integers(0, 3)),
    st.tuples(st.just("expedite_all")),
    st.tuples(st.just("drop_all")),
)
_STEP = st.tuples(
    # 0.05 and 0.5 land a request exactly on its deadline.
    st.sampled_from([0.0, 0.0, 0.0, 0.001, 0.01, 0.05, 0.2, 0.5, 0.6]),
    st.one_of(_SUBMIT, _SUBMIT, _POP, _POP, _OTHER),
)


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 6), st.lists(_STEP, max_size=80))
# A read and a write expire together: the earlier in view order goes.
@example(0, [
    (0.0, ("submit", WRITE, 0, 1, 0, True, 0)),
    (0.0, ("submit", READ, 2, 1, 0, True, 0)),
    (0.6, ("pop", None, 0, 0.0, 0)),
])
# Past its deadline but still plugged: not dispatchable.
@example(0, [
    (0.0, ("submit", WRITE, 0, 1, 0, False, 0)),
    (0.6, ("pop", WRITE, 0, 0.8, 0)),
])
# The map arrives late: the queue is in start order, not submit order.
@example(2, [
    (0.0, ("submit", WRITE, 10, 1, 0, True, 0)),
    (0.01, ("submit", WRITE, 8, 1, 1, True, 0)),
    (0.6, ("pop", WRITE, 0, 0.0, 2)),
])
# Exactly on its deadline is not past it: the sweep decides.
@example(0, [
    (0.0, ("submit", WRITE, 6, 1, 0, True, 0)),
    (0.0, ("submit", WRITE, 4, 1, 0, True, 0)),
    (0.5, ("pop", WRITE, 5, 0.0, 1)),
])
def test_indexed_elevator_matches_the_scanning_one(map_after, steps):
    env = make_env()
    sides = [
        ElevatorScheduler(env, 0, max_merge_bytes=4 * UNIT),
        ScanningElevator(env, 0, max_merge_bytes=4 * UNIT),
    ]
    logs = ([], [])
    numbers = ({}, {})  # id(request) -> submission number, per side
    made = ([], [])
    for side, log in zip(sides, logs):
        side.on_submit = lambda sps, log=log: log.append(("wake", set(sps)))
        side.on_drop = lambda sps, log=log: log.append(("drop", list(sps)))

    def number(side, req):
        return None if req is None else numbers[side][id(req)]

    for n, (delay, action) in enumerate(steps):
        if n == map_after:
            for side in sides:
                side.set_spindle_map(spindle_of)
        env.now += delay
        kind = action[0]
        if kind == "submit":
            _, op, unit, units, file_id, sync, gen = action
            for k, side in enumerate(sides):
                req = request(
                    env, op, unit * UNIT, units * UNIT, file_id, sync, gen
                )
                numbers[k][id(req)] = len(made[k])
                made[k].append(req)
                side.submit(req)
        elif kind == "pop" and sides[0].spindle_map is not None:
            _, op, head, plug, sp = action
            got = [
                side.pop_next_for_spindle(
                    head * UNIT, sp, op=op, write_plug=plug
                )
                for side in sides
            ]
            assert number(0, got[0]) == number(1, got[1])
        elif kind in ("pop", "pop_next") and len(sides[0]):
            got = [side.pop_next(action[2 if kind == "pop" else 1] * UNIT)
                   for side in sides]
            assert number(0, got[0]) == number(1, got[1])
        elif kind == "expedite_file":
            for side in sides:
                side.expedite_file(action[1])
        elif kind == "expedite_all":
            for side in sides:
                side.expedite_all_writes()
        elif kind == "drop_all":
            assert sides[0].drop_all() == sides[1].drop_all()

        assert logs[0] == logs[1]
        assert [(r.sync, r.length) for r in made[0]] == [
            (r.sync, r.length) for r in made[1]
        ]
        assert [number(0, r) for r in sides[0].pending] == [
            number(1, r) for r in sides[1].pending
        ]
        assert vars(sides[0].stats) == vars(sides[1].stats)
        if sides[0].spindle_map is not None:
            for sp in range(SPINDLES):
                for op in (None, READ, WRITE):
                    assert sides[0].has_request_for_spindle(
                        sp, op
                    ) == sides[1].has_request_for_spindle(sp, op)
                assert sides[0].oldest_plugged_submit(
                    sp
                ) == sides[1].oldest_plugged_submit(sp)
        assert_indexes_exact(sides[0])


# -- each entry point reads only what it touches ----------------------------

_FIELDS = frozenset(f.name for f in dataclasses.fields(BlockRequest))
_reads = []


class CountingRequest(BlockRequest):
    """Notes every read of one of its fields."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            _reads.append(self)
        return object.__getattribute__(self, name)


def deep_queue():
    """4 000 plugged writes, ten for each of 400 files, on 4 spindles.

    A one-unit gap after each keeps them from merging.
    """
    env = make_env()
    sched = ElevatorScheduler(env, 0)
    sched.set_spindle_map(spindle_of)
    by_file = collections.defaultdict(list)
    for i in range(4000):
        env.now = i * 1e-4
        req = request(env, WRITE, 2 * i * UNIT, file_id=i % 400,
                      cls=CountingRequest)
        sched.submit(req)
        by_file[req.file_id].append(req)
    assert len(sched) == 4000
    return env, sched, by_file


def test_fsync_kick_reads_only_its_files_requests():
    env, sched, by_file = deep_queue()
    woken = []
    sched.on_submit = woken.append
    mine = {id(r) for r in by_file[123]}
    spindles = {r.spindle for r in by_file[123]}
    _reads.clear()
    sched.expedite_file(123)
    read = {id(r) for r in _reads}
    assert read <= mine
    assert woken == [spindles]
    assert all(r.sync for r in by_file[123])
    assert not any(r.sync for r in by_file[124])


def test_idle_memory_pressure_kick_reads_nothing():
    env, sched, _ = deep_queue()
    sched.expedite_all_writes()
    assert not any(r.sync is False for r in sched.pending)
    _reads.clear()
    sched.expedite_all_writes()  # nothing is plugged any more
    assert _reads == []


def test_deadline_pick_reads_a_handful():
    env, sched, _ = deep_queue()
    on_two = [r for r in sched.pending if r.spindle == 2]
    oldest = min(on_two, key=lambda r: r.submit_time)
    env.now = 2.0  # every write is past its 0.5 s deadline
    _reads.clear()
    got = sched.pop_next_for_spindle(
        STRIPE * 40, 2, op=WRITE, write_plug=0.012
    )
    assert len(_reads) <= 64
    assert got is oldest  # the deadline, not the sweep, decided


# -- the indexes hold the live queue and nothing else ------------------------


def test_indexes_stay_the_size_of_the_live_queue():
    env = make_env()
    sched = ElevatorScheduler(env, 0, max_merge_bytes=4 * UNIT)
    sched.set_spindle_map(spindle_of)
    rng = random.Random(7)
    picked = collections.Counter()
    for cycle in range(20000):
        env.now += rng.choice([0.0, 0.0005, 0.002, 0.01])
        sched.submit(
            request(
                env,
                rng.choice([READ, WRITE, WRITE, WRITE]),
                rng.randrange(512) * UNIT,
                file_id=rng.randrange(64),
                sync=rng.random() < 0.2,
            )
        )
        if rng.random() < 0.05:
            sched.expedite_file(rng.randrange(64))
        if rng.random() < 0.005:
            sched.expedite_all_writes()
        if len(sched) > 150:
            sp = rng.randrange(SPINDLES)
            op = rng.choice([None, READ, WRITE])
            deadline = sched._oldest_expired(sp, op, env.now, 0.012)
            got = sched.pop_next_for_spindle(
                rng.randrange(512) * UNIT, sp, op=op, write_plug=0.012
            )
            if got is not None:
                picked["deadline" if got is deadline else "sweep"] += 1
        if cycle % 2000 == 0:
            assert_indexes_exact(sched)
    assert_indexes_exact(sched)
    assert picked["deadline"] > 1000 and picked["sweep"] > 1000, picked
    entries = sum(
        len(order) for orders in sched._due.values() for order in orders.values()
    )
    assert entries == len(sched)
    assert len(sched._writes_by_file) <= len(sched)
    assert len(sched._plugged) <= len(sched)
