"""Tests for cursor alignment, scattered allocation, random strategy."""

import pytest

from repro.mds.allocation import AllocationGroup, SpaceManager
from repro.util.rng import StreamRNG


def test_cursor_alignment_leaves_gaps():
    ag = AllocationGroup(0, start=0, size=1 << 20, cursor_align=64 * 1024)
    a = ag.alloc(32 * 1024)
    b = ag.alloc(32 * 1024)
    assert a == 0
    assert b == 64 * 1024  # aligned, not packed
    # The gap stays free and accounted.
    assert ag.free_bytes == (1 << 20) - 64 * 1024
    ag.check_invariants()


def test_cursor_alignment_gap_reusable_after_wrap():
    ag = AllocationGroup(0, start=0, size=256 * 1024, cursor_align=64 * 1024)
    offs = [ag.alloc(32 * 1024) for _ in range(4)]
    assert offs == [0, 65536, 131072, 196608]
    # Tail exhausted: the next allocation wraps into the gaps.
    g = ag.alloc(32 * 1024)
    assert g == 32 * 1024
    ag.check_invariants()


def test_no_alignment_packs():
    ag = AllocationGroup(0, start=0, size=1 << 20)
    assert [ag.alloc(100) for _ in range(3)] == [0, 100, 200]


def test_alloc_scattered_uses_origin():
    ag = AllocationGroup(0, start=0, size=1 << 20)
    off = ag.alloc_scattered(4096, origin=500_000)
    assert off == 500_000
    # Does not disturb the next-fit cursor.
    assert ag.alloc(4096) == 0
    ag.check_invariants()


def test_alloc_scattered_wraps_when_origin_tail_full():
    ag = AllocationGroup(0, start=0, size=1000)
    ag.alloc(900)
    off = ag.alloc_scattered(50, origin=990)
    assert off == 900  # wrapped to the first fit
    assert ag.alloc_scattered(200, origin=0) is None
    ag.check_invariants()


def test_space_manager_scattered_spreads():
    sm = SpaceManager(
        volume_size=1 << 26,
        num_groups=8,
        rng=StreamRNG(3).stream("a"),
        cursor_align=0,
    )
    offsets = [sm.alloc(4096, scattered=True) for _ in range(32)]
    # Never contiguous (overwhelmingly likely), spanning several AGs.
    gaps = [b - a for a, b in zip(sorted(offsets), sorted(offsets)[1:])]
    assert max(gaps) > (1 << 20)
    ags = {off >> 23 for off in offsets}
    assert len(ags) >= 3
    sm.check_invariants()


def test_random_strategy_rotates_groups():
    sm = SpaceManager(
        volume_size=1 << 26,
        num_groups=8,
        strategy="random",
        rng=StreamRNG(3).stream("b"),
        cursor_align=0,
    )
    offsets = [sm.alloc(4096) for _ in range(64)]
    ags = {off >> 23 for off in offsets}
    assert len(ags) >= 4  # rotated over many groups
    sm.check_invariants()


def test_scattered_tracks_uncommitted():
    sm = SpaceManager(
        volume_size=1 << 26, num_groups=4, rng=StreamRNG(1).stream("c")
    )
    off = sm.alloc(4096, client_id=2, scattered=True)
    assert sm.uncommitted_bytes(2) == 4096
    sm.note_committed(off, 4096)
    assert sm.uncommitted_bytes(2) == 0
