"""Half-open integer interval sets.

Used for page-cache residency tracking, extent-map bookkeeping and the
ordered-writes invariant checker.  Intervals are ``[start, end)`` byte
ranges; the set keeps them sorted, disjoint and coalesced.
"""

from __future__ import annotations

import bisect
import typing as _t


class IntervalSet:
    """A sorted set of disjoint half-open intervals ``[start, end)``."""

    __slots__ = ("_starts", "_ends")

    def __init__(
        self, intervals: _t.Iterable[_t.Tuple[int, int]] = ()
    ) -> None:
        self._starts: _t.List[int] = []
        self._ends: _t.List[int] = []
        for start, end in intervals:
            self.add(start, end)

    # -- mutation ---------------------------------------------------------

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, coalescing with any overlap/adjacency."""
        if start >= end:
            if start == end:
                return  # Empty interval: no-op.
            raise ValueError(f"invalid interval [{start}, {end})")
        # Find all intervals overlapping or touching [start, end).
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
            del self._starts[lo:hi]
            del self._ends[lo:hi]
        self._starts.insert(lo, start)
        self._ends.insert(lo, end)

    def remove(self, start: int, end: int) -> None:
        """Delete ``[start, end)`` from the set (punching holes as needed)."""
        if start >= end:
            if start == end:
                return
            raise ValueError(f"invalid interval [{start}, {end})")
        lo = bisect.bisect_right(self._ends, start)
        new_starts: _t.List[int] = []
        new_ends: _t.List[int] = []
        i = lo
        while i < len(self._starts) and self._starts[i] < end:
            s, e = self._starts[i], self._ends[i]
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
            i += 1
        self._starts[lo:i] = new_starts
        self._ends[lo:i] = new_ends

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()

    # -- queries -------------------------------------------------------------

    def contains(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` lies entirely inside one interval."""
        if start >= end:
            return start == end
        idx = bisect.bisect_right(self._starts, start) - 1
        return idx >= 0 and self._ends[idx] >= end

    def overlaps(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` intersects any interval."""
        if start >= end:
            return False
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx >= 0 and self._ends[idx] > start:
            return True
        idx += 1
        return idx < len(self._starts) and self._starts[idx] < end

    def intersection(self, start: int, end: int) -> "IntervalSet":
        """The part of the set inside ``[start, end)``."""
        result = IntervalSet()
        if start >= end:
            return result
        idx = max(0, bisect.bisect_right(self._ends, start))
        while idx < len(self._starts) and self._starts[idx] < end:
            s = max(start, self._starts[idx])
            e = min(end, self._ends[idx])
            if s < e:
                result.add(s, e)
            idx += 1
        return result

    def total(self) -> int:
        """Total covered length."""
        return sum(self._ends) - sum(self._starts)

    def __iter__(self) -> _t.Iterator[_t.Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s}, {e})" for s, e in self)
        return f"IntervalSet({spans})"


class BatchedIntervalSet(IntervalSet):
    """An :class:`IntervalSet` that takes its adds in sorted batches.

    Each :meth:`add` into a long set shifts the tail of both lists; a
    set that only grows (the disk array's stable ranges) pays that once
    per add.  Here adds wait in a buffer of at most :attr:`BATCH`
    ranges, and a fold sorts the buffer and merges it in one pass.  The
    buffer is folded when it fills and before every read or removal,
    so the set reads exactly as if each add had gone in on its own.
    """

    __slots__ = ("_pending",)

    #: Ranges buffered before a fold.
    BATCH = 512

    def __init__(
        self, intervals: _t.Iterable[_t.Tuple[int, int]] = ()
    ) -> None:
        self._pending: _t.List[_t.Tuple[int, int]] = []
        super().__init__(intervals)

    def add(self, start: int, end: int) -> None:
        if start >= end:
            if start == end:
                return
            raise ValueError(f"invalid interval [{start}, {end})")
        pending = self._pending
        pending.append((start, end))
        if len(pending) >= self.BATCH:
            self._fold()

    def _fold(self) -> None:
        """Merge the buffered ranges into the set."""
        pending = self._pending
        if not pending:
            return
        pending.sort()
        starts, ends = self._starts, self._ends
        new_starts: _t.List[int] = []
        new_ends: _t.List[int] = []
        done = 0  # ranges of the old lists already copied or merged
        for start, end in pending:
            # The old ranges touching [start, end): [lo, hi).
            lo = bisect.bisect_left(ends, start, done)
            hi = bisect.bisect_right(starts, end, lo)
            if done < lo:
                new_starts += starts[done:lo]
                new_ends += ends[done:lo]
            if lo < hi:
                start = min(start, starts[lo])
                end = max(end, ends[hi - 1])
            done = hi
            if new_ends and start <= new_ends[-1]:
                if end > new_ends[-1]:
                    new_ends[-1] = end
            else:
                new_starts.append(start)
                new_ends.append(end)
        new_starts += starts[done:]
        new_ends += ends[done:]
        self._starts = new_starts
        self._ends = new_ends
        pending.clear()

    def remove(self, start: int, end: int) -> None:
        self._fold()
        super().remove(start, end)

    def clear(self) -> None:
        self._pending.clear()
        super().clear()

    def contains(self, start: int, end: int) -> bool:
        self._fold()
        return super().contains(start, end)

    def overlaps(self, start: int, end: int) -> bool:
        self._fold()
        return super().overlaps(start, end)

    def intersection(self, start: int, end: int) -> IntervalSet:
        self._fold()
        return super().intersection(start, end)

    def total(self) -> int:
        self._fold()
        return super().total()

    def __iter__(self) -> _t.Iterator[_t.Tuple[int, int]]:
        self._fold()
        return super().__iter__()

    def __len__(self) -> int:
        self._fold()
        return super().__len__()

    def __bool__(self) -> bool:
        return bool(self._pending) or super().__bool__()

    def __eq__(self, other: object) -> bool:
        self._fold()
        if isinstance(other, BatchedIntervalSet):
            other._fold()
        return super().__eq__(other)
