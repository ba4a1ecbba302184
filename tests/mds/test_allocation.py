"""Tests for allocation groups and the space manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mds.allocation import AllocationGroup, OutOfSpaceError, SpaceManager
from repro.util.intervals import IntervalSet


# -- AllocationGroup -----------------------------------------------------------


def test_ag_simple_alloc_free():
    ag = AllocationGroup(0, start=0, size=1000)
    a = ag.alloc(100)
    b = ag.alloc(100)
    assert a == 0 and b == 100  # next-fit is contiguous
    assert ag.free_bytes == 800
    ag.free(a, 100)
    ag.free(b, 100)
    assert ag.free_bytes == 1000
    ag.check_invariants()
    assert ag.free_extents() == [(0, 1000)]  # fully coalesced


def test_ag_next_fit_contiguity():
    """Back-to-back allocations get adjacent addresses (merge enabler)."""
    ag = AllocationGroup(0, start=0, size=10_000)
    offsets = [ag.alloc(50) for _ in range(10)]
    assert offsets == [i * 50 for i in range(10)]


def test_ag_wraps_when_tail_exhausted():
    ag = AllocationGroup(0, start=0, size=300)
    a = ag.alloc(100)
    b = ag.alloc(100)
    c = ag.alloc(100)
    assert (a, b, c) == (0, 100, 200)
    ag.free(a, 100)
    # Cursor is at 300; only the freed head fits now.
    d = ag.alloc(100)
    assert d == 0
    assert ag.free_bytes == 0


def test_ag_alloc_too_large_returns_none():
    ag = AllocationGroup(0, start=0, size=100)
    assert ag.alloc(101) is None
    ag.alloc(60)
    assert ag.alloc(60) is None  # enough bytes total... not anymore
    ag.check_invariants()


def test_ag_fragmented_but_sufficient():
    ag = AllocationGroup(0, start=0, size=300)
    a = ag.alloc(100)
    b = ag.alloc(100)
    c = ag.alloc(100)
    ag.free(a, 100)
    ag.free(c, 100)
    # 200 bytes free but no 150-contiguous extent.
    assert ag.alloc(150) is None
    assert ag.alloc(100) is not None
    ag.check_invariants()


def test_ag_double_free_detected():
    ag = AllocationGroup(0, start=0, size=100)
    a = ag.alloc(50)
    ag.free(a, 50)
    with pytest.raises(ValueError):
        ag.free(a, 50)


def test_ag_partial_overlap_free_detected():
    ag = AllocationGroup(0, start=0, size=100)
    ag.alloc(100)
    ag.free(0, 30)
    with pytest.raises(ValueError):
        ag.free(20, 30)  # overlaps [0, 30)


def test_ag_free_out_of_bounds():
    ag = AllocationGroup(0, start=100, size=100)
    with pytest.raises(ValueError):
        ag.free(0, 50)
    with pytest.raises(ValueError):
        ag.free(150, 100)


def test_ag_validation():
    with pytest.raises(ValueError):
        AllocationGroup(0, start=0, size=0)
    ag = AllocationGroup(0, start=0, size=100)
    with pytest.raises(ValueError):
        ag.alloc(0)
    with pytest.raises(ValueError):
        ag.free(0, 0)


def test_ag_rejected_free_leaves_group_intact():
    """A refused free must not coalesce with its left neighbour first."""
    ag = AllocationGroup(0, start=0, size=100)
    a, b, c = ag.alloc(10), ag.alloc(10), ag.alloc(10)
    ag.free(a, 10)
    ag.free(c, 10)
    assert ag.free_extents() == [(0, 10), (20, 80)]
    with pytest.raises(ValueError, match="double free"):
        ag.free(b, 15)  # [10, 25) touches [0, 10), overlaps [20, 100)
    assert ag.free_extents() == [(0, 10), (20, 80)]
    assert ag.free_bytes == 90
    ag.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "scattered", "free", "bad_free"]),
            st.integers(1, 64),
            st.integers(0, 1023),
        ),
        max_size=80,
    )
)
def test_ag_never_double_allocates(ops):
    """Model: the free map is the coalesced complement of the held ranges.

    Mixes next-fit and scattered allocation, frees of held ranges, and
    frees overlapping free space, which must be refused without a trace.
    """
    size = 1024
    ag = AllocationGroup(0, start=0, size=size)
    held = []  # (offset, length)

    def model():
        free = IntervalSet([(0, size)])
        for h_off, h_len in held:
            free.remove(h_off, h_off + h_len)
        return free

    for op, length, where in ops:
        free = model()
        if op in ("alloc", "scattered"):
            if op == "alloc":
                offset = ag.alloc(length)
            else:
                offset = ag.alloc_scattered(length, where)
            fits = any(end - start >= length for start, end in free)
            assert (offset is not None) == fits
            if offset is not None:
                assert free.contains(offset, offset + length), (
                    "allocator returned space it does not own"
                )
                held.append((offset, length))
        elif op == "free":
            if held:
                ag.free(*held.pop(where % len(held)))
        else:
            end = min(where + length, size)
            if free.overlaps(where, end):
                with pytest.raises(ValueError, match="double free"):
                    ag.free(where, end - where)
        ag.check_invariants()
        assert ag.free_extents() == [
            (start, end - start) for start, end in model()
        ]
    assert ag.free_bytes == size - sum(ln for _, ln in held)


# -- SpaceManager --------------------------------------------------------------


def test_space_manager_locality_keeps_contiguity():
    sm = SpaceManager(volume_size=4000, num_groups=4, strategy="locality")
    offsets = [sm.alloc(10) for _ in range(5)]
    assert offsets == [0, 10, 20, 30, 40]


def test_space_manager_round_robin_rotates_ags():
    sm = SpaceManager(volume_size=4000, num_groups=4, strategy="round-robin")
    offsets = [sm.alloc(10) for _ in range(4)]
    ags = {off // 1000 for off in offsets}
    assert len(ags) == 4  # one allocation per AG


def test_space_manager_spills_to_next_group():
    sm = SpaceManager(volume_size=200, num_groups=2, strategy="locality")
    a = sm.alloc(80)
    b = sm.alloc(80)  # does not fit in AG0's remaining 20
    assert a == 0
    assert b == 100  # start of AG1


def test_space_manager_out_of_space():
    sm = SpaceManager(volume_size=100, num_groups=1)
    sm.alloc(100)
    with pytest.raises(OutOfSpaceError):
        sm.alloc(1)


def test_space_manager_free_routes_to_owner_ag():
    sm = SpaceManager(volume_size=2000, num_groups=2)
    a = sm.alloc(500)
    b = sm.alloc(600)  # spills to AG1
    sm.free(b, 600)
    sm.free(a, 500)
    assert sm.free_bytes == 2000
    sm.check_invariants()


def test_chunk_delegation_tracked_as_uncommitted():
    sm = SpaceManager(volume_size=1 << 20, num_groups=2)
    chunk = sm.alloc_chunk(4096, client_id=7)
    assert chunk.length == 4096
    assert sm.uncommitted_bytes(7) == 4096
    assert sm.chunk_delegations == 1


def test_commit_clears_uncommitted():
    sm = SpaceManager(volume_size=1 << 20, num_groups=2)
    off = sm.alloc(4096, client_id=3)
    assert sm.uncommitted_bytes(3) == 4096
    sm.note_committed(off, 4096)
    assert sm.uncommitted_bytes(3) == 0
    assert sm.uncommitted_bytes() == 0


def test_reclaim_uncommitted_frees_space():
    sm = SpaceManager(volume_size=10_000, num_groups=2)
    sm.alloc(1000, client_id=1)
    sm.alloc(2000, client_id=2)
    assert sm.free_bytes == 7000
    reclaimed = sm.reclaim_uncommitted()
    assert reclaimed == 3000
    assert sm.free_bytes == 10_000
    sm.check_invariants()


def test_reclaim_single_client():
    sm = SpaceManager(volume_size=10_000, num_groups=1)
    sm.alloc(1000, client_id=1)
    sm.alloc(2000, client_id=2)
    assert sm.reclaim_uncommitted(client_id=1) == 1000
    assert sm.uncommitted_bytes(2) == 2000


def test_release_uncommitted_validates_ownership():
    sm = SpaceManager(volume_size=10_000, num_groups=1)
    off = sm.alloc(1000, client_id=1)
    with pytest.raises(ValueError):
        sm.release_uncommitted(2, off, 1000)
    sm.release_uncommitted(1, off, 1000)
    assert sm.free_bytes == 10_000


def test_partial_commit_of_chunk():
    """Committing part of a delegated chunk leaves the rest reclaimable."""
    sm = SpaceManager(volume_size=1 << 20, num_groups=1)
    chunk = sm.alloc_chunk(8192, client_id=5)
    sm.note_committed(chunk.volume_offset, 4096)
    assert sm.uncommitted_bytes(5) == 4096
    assert sm.reclaim_uncommitted(5) == 4096
    sm.check_invariants()


def test_space_manager_validation():
    with pytest.raises(ValueError):
        SpaceManager(volume_size=100, num_groups=0)
    with pytest.raises(ValueError):
        SpaceManager(volume_size=100, num_groups=4, strategy="best-fit")
