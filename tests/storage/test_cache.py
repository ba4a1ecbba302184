"""Tests for the client page cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import PageCache


def test_write_makes_range_resident_and_dirty():
    cache = PageCache()
    cache.write(1, 0, 4096)
    assert cache.read_hit(1, 0, 4096)
    assert cache.is_dirty(1)
    assert cache.resident_bytes == 4096


def test_partial_range_miss():
    cache = PageCache()
    cache.write(1, 0, 4096)
    assert not cache.read_hit(1, 0, 8192)
    assert cache.misses == 1


def test_mark_clean_clears_dirty_only():
    cache = PageCache()
    cache.write(1, 0, 8192)
    cache.mark_clean(1, 0, 8192)
    assert not cache.is_dirty(1)
    assert cache.read_hit(1, 0, 8192)  # still resident


def test_fill_installs_clean_data():
    cache = PageCache()
    cache.fill(2, 0, 4096)
    assert cache.read_hit(2, 0, 4096)
    assert not cache.is_dirty(2)


def test_dirty_ranges_reported():
    cache = PageCache()
    cache.write(1, 0, 4096)
    cache.write(1, 8192, 4096)
    cache.mark_clean(1, 0, 4096)
    assert list(cache.dirty_ranges(1)) == [(8192, 12288)]


def test_lru_eviction_of_clean_files():
    cache = PageCache(capacity=8192)
    cache.fill(1, 0, 4096)
    cache.fill(2, 0, 4096)
    cache.fill(3, 0, 4096)  # evicts file 1 (LRU)
    assert cache.evictions >= 1
    assert not cache.read_hit(1, 0, 4096)
    assert cache.read_hit(3, 0, 4096)
    assert cache.resident_bytes <= 8192


def test_dirty_files_never_evicted():
    cache = PageCache(capacity=8192)
    cache.write(1, 0, 4096)
    cache.write(2, 0, 4096)
    cache.write(3, 0, 4096)  # over capacity but everything is dirty
    assert cache.read_hit(1, 0, 4096)
    assert cache.read_hit(2, 0, 4096)
    assert cache.read_hit(3, 0, 4096)
    assert cache.evictions == 0


def test_touch_on_hit_protects_from_eviction():
    cache = PageCache(capacity=8192)
    cache.fill(1, 0, 4096)
    cache.fill(2, 0, 4096)
    assert cache.read_hit(1, 0, 4096)  # file 1 becomes MRU
    cache.fill(3, 0, 4096)  # evicts file 2
    assert cache.read_hit(1, 0, 4096)
    assert not cache.read_hit(2, 0, 4096)


def test_drop_volatile_clears_everything():
    cache = PageCache()
    cache.write(1, 0, 4096)
    cache.fill(2, 0, 4096)
    cache.drop_volatile()
    assert cache.resident_bytes == 0
    assert not cache.read_hit(1, 0, 4096)
    assert not cache.is_dirty(1)


def test_drop_file():
    cache = PageCache()
    cache.write(1, 0, 4096)
    cache.drop_file(1)
    assert cache.resident_bytes == 0
    assert not cache.read_hit(1, 0, 4096)


def test_unbounded_cache():
    cache = PageCache(capacity=None)
    for i in range(100):
        cache.fill(i, 0, 1 << 20)
    assert cache.evictions == 0
    assert cache.resident_bytes == 100 << 20


def test_invalid_capacity():
    with pytest.raises(ValueError):
        PageCache(capacity=0)


def test_overlapping_writes_account_once():
    cache = PageCache()
    cache.write(1, 0, 8192)
    cache.write(1, 4096, 8192)
    assert cache.resident_bytes == 12288


class _ReferenceCache(PageCache):
    """The eviction pass as first written: copy the LRU order, test
    every file ahead of the first clean one.  Defines which files go."""

    def _evict_if_needed(self, exclude):
        if self.capacity is None or self._resident_bytes <= self.capacity:
            return
        for victim_id in list(self._files):
            if self._resident_bytes <= self.capacity:
                break
            if victim_id == exclude:
                continue
            victim = self._files[victim_id]
            if victim.dirty:
                continue
            del self._files[victim_id]
            self._resident_bytes -= victim.bytes_resident()
            self.evictions += 1


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["write", "fill", "mark_clean", "read_hit", "drop_file"]
        ),
        st.integers(0, 7),  # file
        st.integers(0, 3),  # page
        st.integers(0, 3),  # pages (0: an empty range)
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_CACHE_OPS, st.integers(1, 12))
def test_eviction_matches_the_reference_pass(ops, capacity_pages):
    page = 4096
    cache = PageCache(capacity_pages * page)
    reference = _ReferenceCache(capacity_pages * page)
    for name, file_id, first, pages in ops:
        for target in (cache, reference):
            if name == "drop_file":
                target.drop_file(file_id)
            else:
                getattr(target, name)(file_id, first * page, pages * page)
        # Same victims, same survivors in the same LRU order.
        assert list(cache._files) == list(reference._files)
        assert cache.evictions == reference.evictions
        assert cache.resident_bytes == reference.resident_bytes
        assert cache.dirty_bytes == reference.dirty_bytes
        assert cache._dirty_files == sum(
            1 for entry in cache._files.values() if entry.dirty
        )
