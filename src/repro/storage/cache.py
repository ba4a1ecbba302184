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

import heapq
import typing as _t
from collections import OrderedDict

from repro.util.intervals import IntervalSet


class _FileEntry:
    __slots__ = ("resident", "dirty", "stamp")

    def __init__(self) -> None:
        self.resident = IntervalSet()
        self.dirty = IntervalSet()
        #: The file's place in the LRU order: the cache's touch count
        #: at the file's last touch.
        self.stamp = 0

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
        #: Touches so far (see ``_FileEntry.stamp``).
        self._touches = 0
        #: Clean files in LRU order, as a heap of ``(stamp, file_id)``:
        #: the eviction candidates, without the dirty files that sit
        #: ahead of them in ``_files``.  Entries go stale when their
        #: file is touched again, dirtied or dropped and are discarded
        #: as eviction meets them (or in a rebuild when they pile up).
        #: Built by the first eviction pass and kept from then on, so a
        #: cache that never fills pays nothing for it.
        self._clean: _t.Optional[_t.List[_t.Tuple[int, int]]] = None
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
        entry.stamp = self._touches = self._touches + 1
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
        if not dirty_after and self._clean is not None:
            self._note_clean(file_id, entry)  # an empty write
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
            if dirty_before and not dirty_after and self._clean is not None:
                self._note_clean(file_id, entry)

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
        self._clean = None
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
        entry.stamp = self._touches = self._touches + 1
        if self._clean is not None and not entry.dirty:
            self._note_clean(file_id, entry)
        return entry

    def _clean_in_lru_order(self) -> _t.List[_t.Tuple[int, int]]:
        """The candidates' heap, from scratch: ``_files`` is in stamp
        order, so the list is sorted and already a heap."""
        return [
            (entry.stamp, file_id)
            for file_id, entry in self._files.items()
            if not entry.dirty
        ]

    def _note_clean(self, file_id: int, entry: _FileEntry) -> None:
        """``file_id`` is clean as of its last touch: a candidate."""
        clean = self._clean
        if len(clean) > 2 * len(self._files) + 64:
            clean[:] = self._clean_in_lru_order()  # mostly stale
        else:
            heapq.heappush(clean, (entry.stamp, file_id))

    def _evict_if_needed(self, exclude: int) -> None:
        capacity = self.capacity
        if capacity is None or self._resident_bytes <= capacity:
            return
        if self._dirty_files == len(self._files):
            return  # nothing clean to drop
        if self._clean is None:
            self._clean = self._clean_in_lru_order()
        # Clean files in LRU order; the protected file is passed over
        # and dirty ones are never candidates (dirty data is never
        # dropped silently).
        files = self._files
        clean = self._clean
        resident = self._resident_bytes
        victims = 0
        spared = None
        while clean and resident > capacity:
            stamp, victim_id = heapq.heappop(clean)
            victim = files.get(victim_id)
            if victim is None or victim.stamp != stamp or victim.dirty:
                continue  # stale
            if victim_id == exclude:
                spared = (stamp, victim_id)
                continue
            del files[victim_id]
            resident -= victim.bytes_resident()
            victims += 1
        if spared is not None:
            heapq.heappush(clean, spared)
        self._resident_bytes = resident
        self.evictions += victims
