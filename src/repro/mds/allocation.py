"""Physical space management: allocation groups and the space manager.

Per the paper (§V.A): "All storage devices are divided into allocation
groups (AGs).  An allocation group is the management unit of storage
resources.  Each AG has its own B+ tree to allocate and deallocate
physical space.  Multiple AGs provide parallel allocations.  Across AGs,
flexible allocation strategies can be applied ... The default is
round-robin."

Within an AG, allocation is *next-fit*: a cursor sweeps forward so that
back-to-back allocations receive adjacent volume addresses.  This is the
"allocation policy prefers to allocate new space nearby" of §III.B and it
is precisely the property that lets bursts of delayed-commit writes merge
-- and that concurrent clients destroy by interleaving, motivating space
delegation (§IV.A).

Two cross-AG strategies are provided:

- ``locality`` (default): stay in the current AG until it cannot satisfy
  a request, preserving cursor continuity across allocations;
- ``round-robin``: rotate AGs on every allocation (the paper's default
  AG policy taken literally); exposed for the ablation benchmark, it
  destroys inter-allocation contiguity entirely.

The space manager also tracks *uncommitted* allocations (space handed to
clients whose metadata commit has not yet arrived) so that post-crash
recovery can garbage-collect orphans.
"""

from __future__ import annotations

import typing as _t
from bisect import bisect_right

from repro.mds.extent import Chunk
from repro.util.rng import StreamRNG
from repro.util.intervals import IntervalSet


class OutOfSpaceError(Exception):
    """No allocation group can satisfy the request."""


class AllocationGroup:
    """Free-space management for one contiguous slice of the volume.

    The paper's per-group B+ tree is modelled as a sorted extent list
    (two parallel lists searched with ``bisect``): virtual time never
    charged the tree's depth, and both pick the same free extent.
    """

    def __init__(
        self,
        ag_id: int,
        start: int,
        size: int,
        cursor_align: int = 0,
    ) -> None:
        if size <= 0 or start < 0:
            raise ValueError(f"bad AG extent start={start} size={size}")
        self.ag_id = ag_id
        self.start = start
        self.size = size
        #: Free extents, sorted by offset: ``_offs[i]`` starts one of
        #: ``_lens[i]`` bytes.  Disjoint and never touching (coalesced).
        self._offs: _t.List[int] = [start]
        self._lens: _t.List[int] = [size]
        self.free_bytes = size
        self._cursor = start
        #: Post-allocation cursor alignment: real extent allocators keep
        #: per-file alignment (stripe/extent hints), so back-to-back
        #: small files are *not* byte-contiguous on disk.  The skipped
        #: gap stays free and is reused after the cursor wraps.
        self.cursor_align = cursor_align

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.end

    # -- allocation -------------------------------------------------------

    def alloc(self, length: int) -> _t.Optional[int]:
        """Next-fit allocate ``length`` bytes; returns offset or ``None``."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if length > self.free_bytes:
            return None

        offset = self._alloc_from(self._cursor, length)
        if offset is None and self._cursor > self.start:
            offset = self._alloc_from(self.start, length)  # wrap
        if offset is not None:
            self._cursor = offset + length
            if self.cursor_align > 1:
                self._cursor = (
                    -(-self._cursor // self.cursor_align)
                ) * self.cursor_align
            self.free_bytes -= length
        return offset

    def alloc_scattered(
        self, length: int, origin: int
    ) -> _t.Optional[int]:
        """Allocate from the first fit at/after an arbitrary ``origin``.

        Used to model an *aged* namespace: callers pass random origins so
        files land scattered over the volume instead of packed at the
        allocation cursor.  Does not move the next-fit cursor.
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if length > self.free_bytes:
            return None
        origin = min(max(origin, self.start), self.end - 1)
        offset = self._alloc_from(origin, length)
        if offset is None:
            offset = self._alloc_from(self.start, length)
        if offset is not None:
            self.free_bytes -= length
        return offset

    def _alloc_from(self, origin: int, length: int) -> _t.Optional[int]:
        """First free extent at/after ``origin`` that fits; split it."""
        offs, lens = self._offs, self._lens
        i = bisect_right(offs, origin)
        # The extent straddling origin may have a usable tail.
        if i:
            f_off = offs[i - 1]
            f_end = f_off + lens[i - 1]
            if f_end >= origin + length:
                tail = f_end - (origin + length)
                if origin > f_off:
                    lens[i - 1] = origin - f_off
                    if tail:
                        offs.insert(i, origin + length)
                        lens.insert(i, tail)
                elif tail:
                    offs[i - 1] = origin + length
                    lens[i - 1] = tail
                else:
                    del offs[i - 1], lens[i - 1]
                return origin
        for j in range(i, len(offs)):
            f_len = lens[j]
            if f_len >= length:
                f_off = offs[j]
                if f_len > length:
                    offs[j] = f_off + length
                    lens[j] = f_len - length
                else:
                    del offs[j], lens[j]
                return f_off
        return None

    def free(self, offset: int, length: int) -> None:
        """Return ``[offset, offset+length)`` to the free pool, coalescing.

        A range overlapping free space is refused before anything
        changes, so a rejected free leaves the group intact.
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        end = offset + length
        if not (self.start <= offset and end <= self.end):
            raise ValueError(
                f"free [{offset}, {end}) outside AG {self.ag_id}"
            )
        offs, lens = self._offs, self._lens
        i = bisect_right(offs, offset)
        for j in range(max(i - 1, 0), min(i + 1, len(offs))):
            if offs[j] < end and offset < offs[j] + lens[j]:
                raise ValueError(
                    f"double free: [{offset}, {end}) overlaps "
                    f"free extent [{offs[j]}, {offs[j] + lens[j]})"
                )
        left = i > 0 and offs[i - 1] + lens[i - 1] == offset
        right = i < len(offs) and offs[i] == end
        if left and right:
            lens[i - 1] += length + lens[i]
            del offs[i], lens[i]
        elif left:
            lens[i - 1] += length
        elif right:
            offs[i] = offset
            lens[i] += length
        else:
            offs.insert(i, offset)
            lens.insert(i, length)
        self.free_bytes += length

    # -- introspection -------------------------------------------------------

    def free_extents(self) -> _t.List[_t.Tuple[int, int]]:
        return list(zip(self._offs, self._lens))

    def check_invariants(self) -> None:
        """Free extents must be in-bounds, disjoint, coalesced, and sum up."""
        assert len(self._offs) == len(self._lens)
        total = 0
        prev_end: _t.Optional[int] = None
        for off, ln in zip(self._offs, self._lens):
            assert ln > 0
            assert self.start <= off and off + ln <= self.end, "out of bounds"
            if prev_end is not None:
                assert off > prev_end, "free extents overlap or touch"
            prev_end = off + ln
            total += ln
        assert total == self.free_bytes, (
            f"free_bytes {self.free_bytes} != extent sum {total}"
        )


class SpaceManager:
    """Cross-AG allocation with orphan (uncommitted space) tracking."""

    def __init__(
        self,
        volume_size: int,
        num_groups: int = 4,
        strategy: str = "locality",
        device_id: int = 0,
        rng: _t.Optional["StreamRNG"] = None,
        cursor_align: int = 64 * 1024,
        base_offset: int = 0,
    ) -> None:
        if num_groups <= 0:
            raise ValueError(f"num_groups must be positive, got {num_groups}")
        if volume_size < num_groups:
            raise ValueError("volume too small for the AG count")
        if strategy not in ("locality", "round-robin", "random"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if base_offset < 0:
            raise ValueError(f"base_offset must be >= 0, got {base_offset}")
        self.volume_size = volume_size
        self.strategy = strategy
        self.device_id = device_id
        #: First volume byte this manager owns.  A sharded metadata
        #: service carves the volume into disjoint slices, one manager
        #: per shard, each covering ``[base_offset, base_offset +
        #: volume_size)``.
        self.base_offset = base_offset
        ag_size = volume_size // num_groups
        self.groups = [
            AllocationGroup(
                i, base_offset + i * ag_size, ag_size,
                cursor_align=cursor_align,
            )
            for i in range(num_groups)
        ]
        self._current = 0
        self._rng = rng if rng is not None else StreamRNG(0).stream("alloc")
        #: Space allocated but not yet covered by committed metadata,
        #: per client, for post-crash orphan collection.
        self._uncommitted: _t.Dict[int, IntervalSet] = {}
        self.allocations = 0
        self.chunk_delegations = 0

    # -- allocation -------------------------------------------------------------

    def alloc(
        self,
        length: int,
        client_id: _t.Optional[int] = None,
        scattered: bool = False,
    ) -> int:
        """Allocate ``length`` bytes; returns the volume offset.

        ``scattered`` draws the placement from a random position in a
        random AG -- used to seed benchmark namespaces as if the file
        system had aged, so "random reads over the whole namespace"
        really reach across the volume.

        Raises :class:`OutOfSpaceError` when no AG can satisfy it.
        """
        if scattered:
            start_idx = self._rng.integers(0, len(self.groups))
            for hop in range(len(self.groups)):
                group = self.groups[(start_idx + hop) % len(self.groups)]
                origin = group.start + self._rng.integers(0, group.size)
                offset = group.alloc_scattered(length, origin)
                if offset is not None:
                    self.allocations += 1
                    if client_id is not None:
                        self.note_uncommitted(client_id, offset, length)
                    return offset
            raise OutOfSpaceError(f"cannot allocate {length} bytes")
        order = self._group_order()
        for idx in order:
            offset = self.groups[idx].alloc(length)
            if offset is not None:
                self._current = idx
                self.allocations += 1
                if self.strategy == "round-robin":
                    self._current = (idx + 1) % len(self.groups)
                elif self.strategy == "random":
                    self._current = self._rng.integers(
                        0, len(self.groups)
                    )
                if client_id is not None:
                    self.note_uncommitted(client_id, offset, length)
                return offset
        raise OutOfSpaceError(f"cannot allocate {length} bytes")

    def alloc_chunk(self, chunk_size: int, client_id: int) -> Chunk:
        """Delegate a contiguous chunk to ``client_id`` (§IV.A)."""
        offset = self.alloc(chunk_size, client_id=client_id)
        self.chunk_delegations += 1
        return Chunk(volume_offset=offset, length=chunk_size)

    def free(self, offset: int, length: int) -> None:
        for group in self.groups:
            if group.contains(offset):
                if offset + length > group.end:
                    raise ValueError("free range spans AG boundary")
                group.free(offset, length)
                return
        raise ValueError(f"offset {offset} outside every AG")

    def _group_order(self) -> _t.List[int]:
        n = len(self.groups)
        return [(self._current + i) % n for i in range(n)]

    # -- orphan tracking -----------------------------------------------------------

    def note_uncommitted(
        self, client_id: int, offset: int, length: int
    ) -> None:
        ranges = self._uncommitted.get(client_id)
        if ranges is None:
            ranges = self._uncommitted[client_id] = IntervalSet()
        ranges.add(offset, offset + length)

    def note_committed(
        self, offset: int, length: int, client_id: _t.Optional[int] = None
    ) -> None:
        """Retire a committed range from the uncommitted books: from
        ``client_id``'s alone when it holds the range (clients hold
        disjoint uncommitted space; ``fsck`` checks it), else from
        every client's."""
        if client_id is not None:
            self._uncommitted[client_id].remove(offset, offset + length)
            return
        for ranges in self._uncommitted.values():
            ranges.remove(offset, offset + length)

    def release_uncommitted(
        self, client_id: int, offset: int, length: int
    ) -> None:
        """A client voluntarily returns unused uncommitted space."""
        ranges = self._uncommitted.get(client_id)
        if ranges is None or not ranges.contains(offset, offset + length):
            raise ValueError(
                f"client {client_id} does not hold uncommitted "
                f"[{offset}, {offset + length})"
            )
        ranges.remove(offset, offset + length)
        self._free_spanning(offset, offset + length)

    def holds_uncommitted(
        self, client_id: int, offset: int, length: int
    ) -> bool:
        """Whether this client owns the whole range as uncommitted space."""
        ranges = self._uncommitted.get(client_id)
        return ranges is not None and ranges.contains(offset, offset + length)

    def reclaim_if_uncommitted(
        self, client_id: int, offset: int, length: int
    ) -> bool:
        """Free the range only if this client still holds it uncommitted.

        Used when a commit loses a race with an unlink: freshly allocated
        extents must be reclaimed, but extents that were re-commits of
        already-committed mappings were freed by the unlink itself.
        """
        ranges = self._uncommitted.get(client_id)
        if ranges is None or not ranges.contains(offset, offset + length):
            return False
        ranges.remove(offset, offset + length)
        self._free_spanning(offset, offset + length)
        return True

    def uncommitted_bytes(self, client_id: _t.Optional[int] = None) -> int:
        if client_id is not None:
            ranges = self._uncommitted.get(client_id)
            return ranges.total() if ranges else 0
        return sum(r.total() for r in self._uncommitted.values())

    def reclaim_uncommitted(
        self, client_id: _t.Optional[int] = None
    ) -> int:
        """Free all orphaned allocations (post-crash GC); returns bytes."""
        reclaimed = 0
        targets = (
            [client_id]
            if client_id is not None
            else list(self._uncommitted.keys())
        )
        for cid in targets:
            ranges = self._uncommitted.pop(cid, None)
            if ranges is None:
                continue
            for start, end in ranges:
                # A range may span AG boundaries if a chunk straddled one;
                # split at boundaries defensively.
                self._free_spanning(start, end)
                reclaimed += end - start
        return reclaimed

    def _free_spanning(self, start: int, end: int) -> None:
        for group in self.groups:
            lo = max(start, group.start)
            hi = min(end, group.end)
            if lo < hi:
                group.free(lo, hi - lo)

    # -- introspection ----------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(g.free_bytes for g in self.groups)

    def check_invariants(self) -> None:
        for group in self.groups:
            group.check_invariants()
