"""The commit queue (§III.A).

"Issued commit requests are inserted into the commit queue if no commit
request of this file resides in" -- insertion deduplicates per file by
merging into the resident record.  Background daemons *check out* records
whose local data writes have completed (the ordered-writes gate) and send
their metadata to the MDS.

The queue also provides:

- **backpressure**: a capacity bound models the finite memory available
  for pending commits; applications block on :meth:`wait_for_room` when
  the queue is full (this keeps delayed commit stable under overload);
- **observability**: a length-change listener feeds the adaptive
  thread-pool controller and the Fig. 6 time series.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush

from repro.core.records import CommitRecord
from repro.mds.extent import Extent
from repro.core.kernel.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


class CommitQueue:
    """FIFO of per-file commit records with dedup and stable-checkout."""

    def __init__(
        self,
        env: "Effects",
        capacity: int = 4096,
        node: str = "",
        shard_of: _t.Optional[_t.Callable[[int], int]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Maps a file id to its metadata shard.  ``None`` (single MDS)
        #: pins everything to shard 0 -- checkout then behaves exactly
        #: like the unsharded queue.  With a mapper, dedup/merge state is
        #: already partitioned (a record is per file, a file is per
        #: shard) and :meth:`checkout_stable` keeps batches single-shard.
        self._shard_of = shard_of
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        #: Node label for spans ("client-3"); cosmetic.
        self.node = node
        #: Resident records keyed by arrival sequence.  Dict insertion
        #: order doubles as the FIFO (deletions preserve it), which
        #: makes checkout's removals O(1) instead of the old list
        #: rebuild -- the rebuild was O(depth) per checkout and
        #: dominated deep-queue runs.
        self._records: _t.Dict[int, CommitRecord] = {}
        self._next_seq = 0
        #: Min-heap of arrival seqs whose records *became* data-stable.
        #: Lazily invalidated: a merge can unstabilise a record again,
        #: and re-stabilising pushes a duplicate seq, so each pop
        #: re-checks the record before trusting the entry.  Popping in
        #: seq order reproduces the old FIFO prefix scan exactly.
        self._stable_seqs: _t.List[int] = []
        self._by_file: _t.Dict[int, CommitRecord] = {}
        self._waiting_gets: _t.List[Event] = []
        self._waiting_room: _t.Deque[Event] = deque()
        #: Data events that already carry this queue's stability
        #: callback, mapped to the resident record awaiting them.  Dedup
        #: merges of long-lived files may present the same
        #: write-completion event many times; registering once per event
        #: keeps callback lists flat and avoids wakeups firing for
        #: records that were already checked out.  The record lists fund
        #: ``CommitRecord.pending_data``: every completion decrements
        #: the in-flight count of each record awaiting that event, so
        #: stability checks never rescan event lists.  (A list, not a
        #: single record: one data event may back records of several
        #: files.)
        self._stability_watch: _t.Dict[Event, _t.List[CommitRecord]] = {}
        #: Resident records that are currently data-stable.  Maintained
        #: at the transition points (insert, merge, event completion,
        #: checkout) so :meth:`wait_for_stable` and the daemon wakeups
        #: are O(1) instead of scanning the queue -- at 10k-client
        #: depths those scans dominated the whole run.
        self._stable_count = 0
        #: Total :meth:`_wake_getters` invocations (regression gauge for
        #: the one-callback-per-event guarantee).
        self.wakeups = 0
        #: Called with the new length after every insert/checkout.
        self.on_length_change: _t.Optional[_t.Callable[[int], None]] = None
        self.inserts = 0
        self.dedup_hits = 0
        self.checkouts = 0
        self.peak_length = 0

    def __len__(self) -> int:
        return len(self._records)

    # -- insertion (application side) ------------------------------------------

    def insert(
        self,
        file_id: int,
        extents: _t.List[Extent],
        data_events: _t.List[Event],
        require_data_stable: bool = True,
        update_id: _t.Optional[int] = None,
    ) -> CommitRecord:
        """Insert a commit request, deduplicating per file.

        Returns the (new or resident) record for the file.  The caller
        should have checked :meth:`has_room` / yielded
        :meth:`wait_for_room` first; inserting over capacity is allowed
        (a single in-flight op per thread may overshoot slightly).
        ``update_id`` tags the record with the originating logical
        update for causal tracing (None when tracing is off).
        """
        self.inserts += 1
        resident = self._by_file.get(file_id)
        if resident is not None and not resident.checked_out:
            was_stable = resident.data_stable
            resident.absorb(extents, data_events)
            self.dedup_hits += 1
            if update_id is not None:
                resident.trace_ids += (update_id,)
            if self.obs is not None:
                self.obs.tracer.instant(
                    "commit_merge",
                    "queue",
                    node=self.node,
                    actor="commit-queue",
                    update_ids=resident.trace_ids,
                    file_id=file_id,
                    merged_update=update_id,
                )
                if resident.trace_span is not None:
                    resident.trace_span.update_ids = resident.trace_ids
                self.obs.registry.counter("commit_queue.merges").inc()
            self._notify_stability(resident, data_events, was_stable)
            return resident

        record = CommitRecord(
            self.env,
            file_id,
            extents,
            data_events,
            require_data_stable=require_data_stable,
            shard=(
                self._shard_of(file_id) if self._shard_of is not None else 0
            ),
        )
        if update_id is not None:
            record.trace_ids = (update_id,)
        if self.obs is not None:
            record.trace_span = self.obs.tracer.begin(
                "commit_queued",
                "queue",
                node=self.node,
                actor="commit-queue",
                update_ids=record.trace_ids,
                file_id=file_id,
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        record.queue_seq = seq
        self._records[seq] = record
        self._by_file[file_id] = record
        self.peak_length = max(self.peak_length, len(self._records))
        self._notify_stability(record, data_events)
        self._changed()
        return record

    def _notify_stability(
        self,
        record: CommitRecord,
        data_events: _t.List[Event],
        was_stable: bool = False,
    ) -> None:
        """Wake sleeping daemons once a record's data becomes stable.

        Each pending data event gets the queue's wake callback exactly
        once, however many dedup merges present it again: repeat
        registrations used to accumulate duplicate callbacks on
        long-lived events, each firing a (wasted) wakeup pass after the
        record they were registered for had already been checked out.

        ``was_stable`` is the record's stability before this insert/merge
        (False for a brand-new record, which is not yet counted); the
        stable-resident counter moves by the transition.
        """
        watch = self._stability_watch
        for ev in data_events:
            if ev.callbacks is None:
                continue
            waiting = watch.get(ev)
            if waiting is None:
                watch[ev] = [record]
                record.pending_data += 1
                ev.callbacks.append(self._on_data_stable)
            elif record not in waiting:
                waiting.append(record)
                record.pending_data += 1
        now_stable = record.data_stable
        if now_stable != was_stable:
            if now_stable:
                self._stable_count += 1
                _heappush(self._stable_seqs, record.queue_seq)
            else:
                self._stable_count -= 1
        if now_stable:
            self._wake_getters()

    def _on_data_stable(self, ev: Event) -> None:
        waiting = self._stability_watch.pop(ev, None)
        if waiting is not None:
            for record in waiting:
                record.pending_data -= 1
                if (
                    record.pending_data == 0
                    and record.require_data_stable
                    and not record.checked_out
                ):
                    # The last in-flight write of a resident ordered
                    # record just hit the disk: the record became
                    # checkout-eligible.  (Unordered records were
                    # counted stable at insert, and checked-out records
                    # are no longer resident.)
                    self._stable_count += 1
                    _heappush(self._stable_seqs, record.queue_seq)
        self._wake_getters()

    # -- checkout (daemon side) -----------------------------------------------

    def checkout_stable(self, limit: int = 1) -> _t.List[CommitRecord]:
        """Remove and return up to ``limit`` data-stable records (FIFO).

        Candidates come straight off the stable-seq heap, so a checkout
        costs O(batch log stable) however deep the queue is -- the old
        full-queue prefix scan was O(depth) per checkout and dominated
        10k-client runs.  Popping seqs in heap order visits stable
        records oldest-first, which is exactly the order the scan
        produced.  Stale heap entries (records merged back to unstable,
        or already checked out through a duplicate entry) are dropped on
        the floor; re-stabilising always pushes a fresh seq.

        The batch is single-shard: the first stable record fixes the
        destination, and stable records of other shards stay queued for
        the next checkout (a compound commit RPC targets one server).
        """
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        records = self._records
        seqs = self._stable_seqs
        batch: _t.List[CommitRecord] = []
        deferred: _t.List[int] = []
        batch_shard: _t.Optional[int] = None
        while seqs and len(batch) < limit:
            seq = _heappop(seqs)
            record = records.get(seq)
            if record is None or not record.data_stable:
                continue  # stale entry
            if batch_shard is not None and record.shard != batch_shard:
                deferred.append(seq)  # stable, but wrong shard: stays
                continue
            batch_shard = record.shard
            record.checked_out = True
            del records[seq]
            del self._by_file[record.file_id]
            batch.append(record)
            if self.obs is not None and record.trace_span is not None:
                self.obs.tracer.end(
                    record.trace_span,
                    extents=len(record.extents),
                    merged_updates=len(record.trace_ids),
                )
        for seq in deferred:
            _heappush(seqs, seq)
        if batch:
            self._stable_count -= len(batch)
            self.checkouts += len(batch)
            if self.obs is not None:
                self.obs.tracer.instant(
                    "commit_checkout",
                    "queue",
                    node=self.node,
                    actor="commit-queue",
                    update_ids=tuple(
                        uid for r in batch for uid in r.trace_ids
                    ),
                    files=tuple(r.file_id for r in batch),
                )
                self.obs.registry.counter("commit_queue.checkouts").inc(
                    len(batch)
                )
            self._changed()
            self._wake_room_waiters()
        return batch

    def wait_for_stable(self) -> Event:
        """Event firing when at least one data-stable record is present."""
        ev = Event(self.env)
        if self._stable_count:
            ev.succeed()
        else:
            self._waiting_gets.append(ev)
        return ev

    def _wake_getters(self) -> None:
        self.wakeups += 1
        if not self._waiting_gets:
            return
        if self._stable_count:
            waiters, self._waiting_gets = self._waiting_gets, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    # -- backpressure ----------------------------------------------------------

    def has_room(self) -> bool:
        return len(self._records) < self.capacity

    def wait_for_room(self) -> Event:
        """Event firing when the queue is below capacity."""
        ev = Event(self.env)
        if self.has_room():
            ev.succeed()
        else:
            self._waiting_room.append(ev)
        return ev

    def _wake_room_waiters(self) -> None:
        while self._waiting_room and self.has_room():
            ev = self._waiting_room.popleft()
            if not ev.triggered:
                ev.succeed()

    # -- introspection -----------------------------------------------------------

    def record_for(self, file_id: int) -> _t.Optional[CommitRecord]:
        return self._by_file.get(file_id)

    def pending_records(self) -> _t.Sequence[CommitRecord]:
        return tuple(self._records.values())

    def drop_all(self) -> _t.List[CommitRecord]:
        """Crash: volatile queue contents are lost; returns what was lost.

        Dropping the records opens room, so writers parked in
        :meth:`wait_for_room` must be released here -- without the wake
        they would stall forever (nothing else re-checks room until the
        next checkout, which can never happen on an empty queue).
        """
        lost = list(self._records.values())
        self._records.clear()
        self._by_file.clear()
        # Stale watch entries must not resurrect counts for lost
        # records when their (still in-flight) writes complete.
        self._stability_watch.clear()
        self._stable_seqs.clear()
        self._stable_count = 0
        self._changed()
        self._wake_room_waiters()
        return lost

    def _changed(self) -> None:
        if self.on_length_change is not None:
            self.on_length_change(len(self._records))
