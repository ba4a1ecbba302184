"""CURP-style witnesses for commutative 1-RTT commits.

The delayed-commit protocol already guarantees every checked-out commit
op is *data-stable* -- its extents have been serviced by the disk array
before the op leaves the client.  What the ordered path still pays is
the full MDS round trip (queueing + journal service) before an fsync
can return.  Following CURP ("Exploiting Commutativity For Practical
Fast Replication"), commits touching **disjoint file ranges commute**:
they can be recorded unordered on a set of witnesses in one fast RTT,
letting the client treat the op as committed while the ordered MDS
sync proceeds in the background.

Fallback rules (checked per compound batch, all-or-nothing):

- *conflict*: an op overlaps an unsynced op's file range (any client)
  -- ordering now matters, take the ordered path;
- *overflow*: the witnesses' slot budget is exhausted -- they cannot
  accept more unsynced state.

Every witness stores the same entries (the client sends to all of them
and needs all acks inside the fast RTT), so the set is modelled as one
logical store whose RTT is the slowest witness's.  Entries are removed
when the background MDS sync completes.  After a whole-cluster crash,
unsynced witness entries are replayed into the MDS -- deduplicated
against its durable ``(client, op_id)`` result table, so an op that did
reach the MDS before the crash is not applied twice (the exactly-once
oracle checks this).
"""

from __future__ import annotations

import typing as _t

from repro.util.intervals import IntervalSet

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.messages import CommitOp
    from repro.core.effects import Effects


class WitnessSet:
    """The witness ensemble of one cluster."""

    def __init__(
        self,
        env: "Effects",
        capacity: int,
        rtt: float,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"witness capacity must be >= 1: {capacity}")
        if rtt <= 0:
            raise ValueError(f"witness rtt must be positive: {rtt}")
        self.env = env
        self.capacity = capacity
        #: One fast round trip to the slowest witness (virtual seconds).
        self.rtt = rtt
        #: Unsynced entries: (client_id, op_id) -> (file_id, extents).
        self._entries: _t.Dict[
            _t.Tuple[int, int], _t.Tuple[int, _t.Tuple[_t.Any, ...]]
        ] = {}
        #: Per-file unsynced ranges (file-offset space) for conflict
        #: detection -- the same interval machinery the commit queue's
        #: dedup uses.
        self._outstanding: _t.Dict[int, IntervalSet] = {}
        # Counters surfaced as curp.* pull gauges (instrument.py).
        self.fast_commits = 0
        self.fallback_conflict = 0
        self.fallback_overflow = 0
        self.synced_ops = 0
        self.replayed_ops = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path -----------------------------------------------------

    def try_record(
        self, client_id: int, ops: _t.Sequence["CommitOp"]
    ) -> bool:
        """Record a batch on every witness, or refuse it atomically.

        Returns True when the whole batch was accepted (the caller then
        owes one witness RTT before treating it as committed); False on
        conflict or overflow (the caller takes the ordered path).
        """
        if len(self._entries) + len(ops) > self.capacity:
            self.fallback_overflow += 1
            return False
        for op in ops:
            ranges = self._outstanding.get(op.file_id)
            if ranges is None:
                continue
            for extent in op.extents:
                if ranges.overlaps(extent.file_offset, extent.file_end):
                    self.fallback_conflict += 1
                    return False
        for op in ops:
            key = (client_id, op.op_id)
            self._entries[key] = (op.file_id, tuple(op.extents))
            ranges = self._outstanding.setdefault(
                op.file_id, IntervalSet()
            )
            for extent in op.extents:
                ranges.add(extent.file_offset, extent.file_end)
        self.fast_commits += len(ops)
        return True

    def sync(self, client_id: int, op_ids: _t.Iterable[int]) -> None:
        """Drop entries once the ordered MDS sync confirmed them."""
        for op_id in op_ids:
            entry = self._entries.pop((client_id, op_id), None)
            if entry is None:
                continue
            file_id, extents = entry
            ranges = self._outstanding.get(file_id)
            if ranges is not None:
                for extent in extents:
                    ranges.remove(extent.file_offset, extent.file_end)
                if not ranges:
                    del self._outstanding[file_id]
            self.synced_ops += 1

    # -- recovery ----------------------------------------------------------

    def unsynced_ops(
        self,
    ) -> _t.List[_t.Tuple[int, int, int, _t.Tuple[_t.Any, ...]]]:
        """Snapshot of unsynced entries for crash-recovery replay.

        Sorted by (client, op id) so replay order -- and therefore the
        recovered MDS oplog -- is deterministic.
        """
        return [
            (client_id, op_id, file_id, extents)
            for (client_id, op_id), (file_id, extents) in sorted(
                self._entries.items()
            )
        ]

    def summary(self) -> _t.Dict[str, int]:
        return {
            "capacity": self.capacity,
            "unsynced": len(self._entries),
            "fast_commits": self.fast_commits,
            "fallback_conflict": self.fallback_conflict,
            "fallback_overflow": self.fallback_overflow,
            "synced_ops": self.synced_ops,
            "replayed_ops": self.replayed_ops,
        }
