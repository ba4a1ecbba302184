"""Offline consistency check: rebuild allocator state from metadata.

Recovery (:mod:`repro.consistency.recovery`) trusts the space manager's
own books and garbage-collects what they say is orphaned.  ``fsck`` is
the stronger, slower tool: it reconstructs what the free space *must*
be purely from the committed namespace — the only durable source of
truth — and cross-checks the allocator against it, extent by extent.
This is what an administrator would run after doubting the books.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.util.intervals import IntervalSet


@dataclass
class FsckReport:
    """Result of a full cross-check."""

    committed_bytes: int = 0
    free_bytes: int = 0
    uncommitted_bytes: int = 0
    #: Volume ranges claimed twice: free in the allocator's books but
    #: claimed by metadata, or held uncommitted by two clients.
    lost_claimed: _t.List[_t.Tuple[int, int]] = field(default_factory=list)
    #: Volume bytes neither free nor committed nor tracked uncommitted.
    leaked_bytes: int = 0

    @property
    def clean(self) -> bool:
        return not self.lost_claimed and self.leaked_bytes == 0

    def summary(self) -> str:
        state = "CLEAN" if self.clean else "CORRUPT"
        return (
            f"fsck: {state} -- committed={self.committed_bytes} "
            f"free={self.free_bytes} uncommitted={self.uncommitted_bytes} "
            f"leaked={self.leaked_bytes} "
            f"free/claimed conflicts={len(self.lost_claimed)}"
        )


def fsck(namespace: Namespace, space: SpaceManager) -> FsckReport:
    """Cross-check the allocator against the committed namespace."""
    report = FsckReport()

    committed = IntervalSet()
    for offset, length in namespace.all_committed_ranges():
        committed.add(offset, offset + length)
    report.committed_bytes = committed.total()

    free = IntervalSet()
    for group in space.groups:
        for offset, length in group.free_extents():
            free.add(offset, offset + length)
    report.free_bytes = free.total()

    # Clients hold disjoint uncommitted space: a commit retires its
    # extent from the committing client's books alone.
    uncommitted = IntervalSet()
    for ranges in space._uncommitted.values():
        for start, end in ranges:
            for c_start, c_end in uncommitted.intersection(start, end):
                report.lost_claimed.append((c_start, c_end - c_start))
            uncommitted.add(start, end)
    report.uncommitted_bytes = uncommitted.total()

    # 1. No committed extent may sit on space the allocator calls free.
    for start, end in committed:
        conflict = free.intersection(start, end)
        for c_start, c_end in conflict:
            report.lost_claimed.append((c_start, c_end - c_start))

    # 2. Every volume byte is exactly one of free / committed /
    #    uncommitted -- anything else leaked out of the books.
    accounted = (
        report.free_bytes
        + report.committed_bytes
        + report.uncommitted_bytes
    )
    report.leaked_bytes = max(0, space.volume_size - accounted)
    return report


def rebuild_free_space(
    namespace: Namespace, space: SpaceManager
) -> SpaceManager:
    """Construct a fresh allocator whose free space is exactly
    everything the committed namespace does not claim.

    This is the fsck *repair* step: orphaned and leaked space alike
    return to the free pool; only committed extents stay allocated.
    The returned manager preserves the original's geometry.
    """
    rebuilt = SpaceManager(
        volume_size=space.volume_size,
        num_groups=len(space.groups),
        strategy=space.strategy,
        device_id=space.device_id,
        cursor_align=space.groups[0].cursor_align if space.groups else 0,
        base_offset=space.base_offset,
    )
    for offset, length in namespace.all_committed_ranges():
        if not _claim(rebuilt, offset, length):
            # Two files claiming the same volume bytes, or an extent
            # outside the managed volume: not repairable by a space
            # rebuild.  (A real exception, not an assert: this must
            # fire under ``python -O`` too.)
            raise ValueError(
                f"committed extent [{offset}, {offset + length}) does "
                "not fit the rebuilt volume (overlapping or out of "
                "bounds)"
            )
    return rebuilt


def _claim(space: SpaceManager, offset: int, length: int) -> bool:
    """Mark ``[offset, offset+length)`` allocated in a fresh manager.

    Atomic: either the whole range is claimed, or nothing is -- a
    partial failure rolls back the pieces already taken, so a failed
    claim cannot corrupt the books of the manager being rebuilt.  A
    range not fully covered by the allocation groups (committed bytes in
    unmanaged space) is a failure, not a silent success.
    """
    pieces: _t.List[_t.Tuple[_t.Any, int, int]] = []
    covered = 0
    for group in space.groups:
        lo = max(offset, group.start)
        hi = min(offset + length, group.end)
        if lo < hi:
            got = group.alloc_scattered(hi - lo, origin=lo)
            if got != lo:
                # The exact range must have been free in a fresh manager.
                if got is not None:
                    group.free(got, hi - lo)
                for other, o_lo, o_len in pieces:
                    other.free(o_lo, o_len)
                return False
            pieces.append((group, lo, hi - lo))
            covered += hi - lo
    if covered != length:
        for other, o_lo, o_len in pieces:
            other.free(o_lo, o_len)
        return False
    return True
