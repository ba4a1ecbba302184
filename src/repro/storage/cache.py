"""Client page cache.

The paper leans on the client cache twice: delayed commit "gains more by
leveraging the client cache" (writes land in memory and the application
proceeds), and in the 32 KB xcdn discussion the cache is noted to be
useless when small files are "randomly scattered over the whole
namespace" (read misses).  This model captures residency -- which byte
ranges of which files are in client memory -- with LRU eviction at file
granularity, plus the dirty/clean distinction the crash model needs.

The cache is volatile: :meth:`PageCache.drop_volatile` models a client
crash by discarding everything (committed-but-cached data would be
re-readable from disk after recovery; for simplicity a crash empties the
cache entirely, which is conservative).
"""

from __future__ import annotations

import typing as _t
from collections import OrderedDict

from repro.util.intervals import IntervalSet


class _FileEntry:
    __slots__ = ("resident", "dirty")

    def __init__(self) -> None:
        self.resident = IntervalSet()
        self.dirty = IntervalSet()

    def bytes_resident(self) -> int:
        return self.resident.total()


class PageCache:
    """Byte-range page cache with file-granularity LRU eviction.

    Parameters
    ----------
    capacity:
        Total resident bytes allowed; ``None`` disables eviction.
    """

    def __init__(self, capacity: _t.Optional[int] = 8 * 1024**3) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._files: "OrderedDict[int, _FileEntry]" = OrderedDict()
        self._resident_bytes = 0
        self._dirty_bytes = 0
        #: Files with any dirty range: none of them is evictable.
        self._dirty_files = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- writes ----------------------------------------------------------------

    def write(self, file_id: int, offset: int, length: int) -> None:
        """Buffer a write: the range becomes resident and dirty."""
        # Every client write comes through here and through mark_clean:
        # the LRU touch and the dirty accounting are spelled out, and the
        # eviction pass is only called when over capacity.
        files = self._files
        entry = files.get(file_id)
        if entry is None:
            entry = files[file_id] = _FileEntry()
        else:
            files.move_to_end(file_id)
        resident, dirty = entry.resident, entry.dirty
        before = resident.total()
        dirty_before = dirty.total()
        end = offset + length
        resident.add(offset, end)
        dirty.add(offset, end)
        self._resident_bytes += resident.total() - before
        dirty_after = dirty.total()
        self._dirty_bytes += dirty_after - dirty_before
        self._dirty_files += (dirty_after > 0) - (dirty_before > 0)
        capacity = self.capacity
        if capacity is not None and self._resident_bytes > capacity:
            self._evict_if_needed(exclude=file_id)

    def mark_clean(self, file_id: int, offset: int, length: int) -> None:
        """The range's data write completed; it is stable on disk."""
        entry = self._files.get(file_id)
        if entry is not None:
            dirty = entry.dirty
            dirty_before = dirty.total()
            dirty.remove(offset, offset + length)
            dirty_after = dirty.total()
            self._dirty_bytes += dirty_after - dirty_before
            self._dirty_files += (dirty_after > 0) - (dirty_before > 0)

    # -- reads ---------------------------------------------------------------

    def read_hit(self, file_id: int, offset: int, length: int) -> bool:
        """Whether a read of the range can be served from memory."""
        entry = self._files.get(file_id)
        if entry is not None and entry.resident.contains(
            offset, offset + length
        ):
            self._touch(file_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, file_id: int, offset: int, length: int) -> None:
        """Install clean data read from disk."""
        entry = self._touch(file_id)
        before = entry.bytes_resident()
        entry.resident.add(offset, offset + length)
        self._resident_bytes += entry.bytes_resident() - before
        self._evict_if_needed(exclude=file_id)

    # -- state ------------------------------------------------------------------

    def dirty_ranges(self, file_id: int) -> IntervalSet:
        entry = self._files.get(file_id)
        return entry.dirty if entry is not None else IntervalSet()

    def is_dirty(self, file_id: int) -> bool:
        entry = self._files.get(file_id)
        return entry is not None and bool(entry.dirty)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def dirty_bytes(self) -> int:
        """Total buffered bytes whose data write has not yet completed."""
        return self._dirty_bytes

    def drop_file(self, file_id: int) -> None:
        entry = self._files.pop(file_id, None)
        if entry is not None:
            self._resident_bytes -= entry.bytes_resident()
            dirty = entry.dirty.total()
            self._dirty_bytes -= dirty
            self._dirty_files -= dirty > 0

    def drop_volatile(self) -> None:
        """Crash: all cached state (clean and dirty) is lost."""
        self._files.clear()
        self._resident_bytes = 0
        self._dirty_bytes = 0
        self._dirty_files = 0

    # -- internals ----------------------------------------------------------------

    def _touch(self, file_id: int) -> _FileEntry:
        entry = self._files.get(file_id)
        if entry is None:
            entry = _FileEntry()
            self._files[file_id] = entry
        else:
            self._files.move_to_end(file_id)
        return entry

    def _evict_if_needed(self, exclude: int) -> None:
        capacity = self.capacity
        if capacity is None or self._resident_bytes <= capacity:
            return
        if self._dirty_files == len(self._files):
            return  # nothing clean to drop
        # One pass in LRU order; dirty files and the protected file are
        # skipped (dirty data is never dropped silently).
        victims = []
        resident = self._resident_bytes
        for victim_id, victim in self._files.items():
            if victim_id == exclude or victim.dirty:
                continue
            victims.append(victim_id)
            resident -= victim.bytes_resident()
            if resident <= capacity:
                break
        for victim_id in victims:
            del self._files[victim_id]
        self._resident_bytes = resident
        self.evictions += len(victims)
