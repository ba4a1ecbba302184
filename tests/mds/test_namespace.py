"""Tests for the MDS namespace and extent maps."""

import pytest

from repro.mds.extent import EXTENT_COMMITTED, Extent
from repro.mds.namespace import (
    FileExistsMdsError,
    FileNotFoundMdsError,
    Namespace,
)


def ext(fo, ln, vo):
    return Extent(file_offset=fo, length=ln, device_id=0, volume_offset=vo)


def test_create_and_lookup():
    ns = Namespace()
    meta = ns.create("a.txt", now=1.0)
    assert meta.file_id == 1
    assert ns.lookup("a.txt") is meta
    assert ns.get(meta.file_id) is meta
    assert len(ns) == 1
    assert meta.file_id in ns


def test_create_duplicate_rejected():
    ns = Namespace()
    ns.create("a", now=0.0)
    with pytest.raises(FileExistsMdsError):
        ns.create("a", now=1.0)


def test_missing_file():
    ns = Namespace()
    with pytest.raises(FileNotFoundMdsError):
        ns.get(42)
    with pytest.raises(FileNotFoundMdsError):
        ns.lookup("ghost")


def test_commit_extends_file():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    freed = ns.commit_extents(meta.file_id, [ext(0, 4096, 1000)], now=1.0)
    assert freed == []
    assert meta.size == 4096
    assert meta.mtime == 1.0
    assert meta.extents[0].state == EXTENT_COMMITTED
    ns.commit_extents(meta.file_id, [ext(4096, 4096, 5096)], now=2.0)
    assert meta.size == 8192
    assert len(meta.extents) == 2
    ns.check_invariants()


def test_commit_overwrite_frees_old_space():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    ns.commit_extents(meta.file_id, [ext(0, 8192, 0)], now=1.0)
    freed = ns.commit_extents(meta.file_id, [ext(0, 8192, 100_000)], now=2.0)
    assert freed == [(0, 8192)]
    assert len(meta.extents) == 1
    assert meta.extents[0].volume_offset == 100_000


def test_commit_partial_overwrite_trims():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    ns.commit_extents(meta.file_id, [ext(0, 12288, 0)], now=1.0)
    freed = ns.commit_extents(meta.file_id, [ext(4096, 4096, 50_000)], now=2.0)
    # Middle 4 KB displaced; head and tail survive.
    assert freed == [(4096, 4096)]
    offs = [(e.file_offset, e.length, e.volume_offset) for e in meta.extents]
    assert offs == [(0, 4096, 0), (4096, 4096, 50_000), (8192, 4096, 8192)]
    ns.check_invariants()


def test_layout_query():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    ns.commit_extents(
        meta.file_id, [ext(0, 4096, 0), ext(8192, 4096, 9000)], now=1.0
    )
    hits = ns.layout(meta.file_id, 0, 4096)
    assert len(hits) == 1 and hits[0].volume_offset == 0
    hits = ns.layout(meta.file_id, 4096, 4096)  # hole
    assert hits == []
    hits = ns.layout(meta.file_id, 0, 12288)
    assert len(hits) == 2


def test_unlink_returns_volume_ranges():
    ns = Namespace()
    meta = ns.create("f", now=0.0)
    ns.commit_extents(
        meta.file_id, [ext(0, 4096, 100), ext(4096, 4096, 9000)], now=1.0
    )
    ranges = ns.unlink(meta.file_id)
    assert sorted(ranges) == [(100, 4096), (9000, 4096)]
    assert len(ns) == 0
    with pytest.raises(FileNotFoundMdsError):
        ns.get(meta.file_id)
    # Name can be reused after unlink.
    ns.create("f", now=2.0)


def test_all_committed_ranges():
    ns = Namespace()
    a = ns.create("a", now=0.0)
    b = ns.create("b", now=0.0)
    ns.commit_extents(a.file_id, [ext(0, 100, 0)], now=1.0)
    ns.commit_extents(b.file_id, [ext(0, 200, 500)], now=1.0)
    assert sorted(ns.all_committed_ranges()) == [(0, 100), (500, 200)]


def test_counters():
    ns = Namespace()
    meta = ns.create("a", now=0.0)
    ns.commit_extents(meta.file_id, [ext(0, 10, 0)], now=1.0)
    ns.unlink(meta.file_id)
    assert (ns.creates, ns.commits, ns.unlinks) == (1, 1, 1)


# -- extent helpers --------------------------------------------------------


def test_extent_validation():
    with pytest.raises(ValueError):
        Extent(file_offset=0, length=0, device_id=0, volume_offset=0)
    with pytest.raises(ValueError):
        Extent(file_offset=-1, length=1, device_id=0, volume_offset=0)
    with pytest.raises(ValueError):
        Extent(
            file_offset=0, length=1, device_id=0, volume_offset=0, state="x"
        )


def test_extent_committed_copy():
    e = ext(0, 10, 5)
    c = e.committed()
    assert c.state == EXTENT_COMMITTED
    assert e.state != EXTENT_COMMITTED
    assert c.volume_end == 15 and c.file_end == 10
