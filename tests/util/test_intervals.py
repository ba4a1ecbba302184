"""Unit and property-based tests for IntervalSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervals import BatchedIntervalSet, IntervalSet


def test_empty_set():
    s = IntervalSet()
    assert not s
    assert len(s) == 0
    assert s.total() == 0
    assert s.contains(0, 0)
    assert not s.contains(0, 1)
    assert not s.overlaps(0, 100)


def test_add_and_contains():
    s = IntervalSet()
    s.add(10, 20)
    assert s.contains(10, 20)
    assert s.contains(12, 15)
    assert not s.contains(5, 15)
    assert not s.contains(15, 25)
    assert s.total() == 10


def test_adjacent_intervals_coalesce():
    s = IntervalSet()
    s.add(0, 10)
    s.add(10, 20)
    assert len(s) == 1
    assert s.contains(0, 20)


def test_overlapping_intervals_coalesce():
    s = IntervalSet()
    s.add(0, 15)
    s.add(10, 30)
    s.add(25, 40)
    assert list(s) == [(0, 40)]


def test_disjoint_intervals_stay_separate():
    s = IntervalSet()
    s.add(0, 10)
    s.add(20, 30)
    assert len(s) == 2
    assert not s.contains(5, 25)
    assert s.overlaps(5, 25)
    assert not s.overlaps(10, 20)


def test_bridging_add_merges_three():
    s = IntervalSet([(0, 10), (20, 30), (40, 50)])
    s.add(5, 45)
    assert list(s) == [(0, 50)]


def test_remove_punches_hole():
    s = IntervalSet([(0, 100)])
    s.remove(40, 60)
    assert list(s) == [(0, 40), (60, 100)]
    assert s.total() == 80


def test_remove_across_intervals():
    s = IntervalSet([(0, 10), (20, 30), (40, 50)])
    s.remove(5, 45)
    assert list(s) == [(0, 5), (45, 50)]


def test_remove_everything():
    s = IntervalSet([(10, 20)])
    s.remove(0, 100)
    assert not s


def test_remove_noop_outside():
    s = IntervalSet([(10, 20)])
    s.remove(30, 40)
    assert list(s) == [(10, 20)]


def test_empty_interval_operations_are_noops():
    s = IntervalSet()
    s.add(5, 5)
    s.remove(5, 5)
    assert not s


def test_invalid_interval_rejected():
    s = IntervalSet()
    with pytest.raises(ValueError):
        s.add(10, 5)
    with pytest.raises(ValueError):
        s.remove(10, 5)


def test_intersection():
    s = IntervalSet([(0, 10), (20, 30)])
    inter = s.intersection(5, 25)
    assert list(inter) == [(5, 10), (20, 25)]
    assert s.intersection(100, 200).total() == 0


def test_clear():
    s = IntervalSet([(0, 10)])
    s.clear()
    assert not s


def test_equality():
    assert IntervalSet([(0, 5), (5, 10)]) == IntervalSet([(0, 10)])
    assert IntervalSet([(0, 5)]) != IntervalSet([(0, 6)])


# -- property-based: IntervalSet behaves like a set of integers --------------

interval_strategy = st.tuples(
    st.integers(0, 200), st.integers(1, 30)
).map(lambda t: (t[0], t[0] + t[1]))

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), interval_strategy),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ops_strategy)
def test_interval_set_matches_integer_set_model(ops):
    s = IntervalSet()
    model = set()
    for op, (start, end) in ops:
        if op == "add":
            s.add(start, end)
            model.update(range(start, end))
        else:
            s.remove(start, end)
            model.difference_update(range(start, end))
    assert s.total() == len(model)
    for point in range(0, 240):
        assert s.contains(point, point + 1) == (point in model)
    # Intervals must be sorted, disjoint, non-adjacent.
    spans = list(s)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2


@settings(max_examples=100, deadline=None)
@given(ops_strategy, interval_strategy)
def test_intersection_matches_model(ops, window):
    s = IntervalSet()
    model = set()
    for op, (start, end) in ops:
        if op == "add":
            s.add(start, end)
            model.update(range(start, end))
        else:
            s.remove(start, end)
            model.difference_update(range(start, end))
    w0, w1 = window
    inter = s.intersection(w0, w1)
    expected = {p for p in model if w0 <= p < w1}
    assert inter.total() == len(expected)


class _SmallBatches(BatchedIntervalSet):
    """Folds every three adds, so a short run folds several times."""

    __slots__ = ()
    BATCH = 3


_READS = ("list", "len", "bool", "total", "contains", "overlaps", "window")

_STABLE_OPS = st.lists(
    st.one_of(
        # Small addresses and lengths: overlaps and adjacency are common.
        st.tuples(st.just("add"), st.integers(0, 40), st.integers(0, 6)),
        st.tuples(st.just("remove"), st.integers(0, 40), st.integers(0, 6)),
        st.tuples(st.sampled_from(_READS), st.integers(0, 40),
                  st.integers(0, 6)),
    ),
    max_size=60,
)


def _read(target, kind, start, end):
    if kind == "list":
        return list(target)
    if kind == "len":
        return len(target)
    if kind == "bool":
        return bool(target)
    if kind == "total":
        return target.total()
    if kind == "window":
        return list(target.intersection(start, end))
    return getattr(target, kind)(start, end)


@settings(max_examples=300, deadline=None)
@given(_STABLE_OPS)
def test_batched_set_reads_as_one_add_at_a_time(ops):
    batched, plain = _SmallBatches(), IntervalSet()
    for kind, start, length in ops:
        end = start + length
        if kind in ("add", "remove"):
            getattr(batched, kind)(start, end)
            getattr(plain, kind)(start, end)
        else:  # a read taken mid-run
            assert _read(batched, kind, start, end) == _read(
                plain, kind, start, end
            )
    assert batched == plain and plain == batched
    assert list(batched) == list(plain)


def test_batched_set_folds_a_full_buffer_in_one_pass():
    batched = _SmallBatches()
    batched.add(20, 30)
    batched.add(0, 10)
    assert batched._starts == []  # still buffered
    batched.add(10, 12)  # the third add folds all three
    assert batched._pending == []
    assert (batched._starts, batched._ends) == ([0, 20], [12, 30])
    with pytest.raises(ValueError):
        batched.add(5, 4)
