"""Per-client block request queues with elevator ordering and merging.

Each Redbud client owns one :class:`ElevatorScheduler` -- the analogue of
the Linux block-layer request queue on which the paper ran ``blktrace``.
Two behaviours matter for the reproduction:

*Merging* (Fig. 1, Fig. 4).  When a new request is contiguous with one
already waiting (same direction, back-to-back LBAs) the two are coalesced
into a single disk operation.  Merges can only happen while requests
*coexist* in the queue, which is why synchronous commit (queue depth ~1)
shows none and delayed commit (many outstanding writes) shows many.

*Elevator ordering* (Fig. 5).  Dispatch follows C-LOOK: the request with
the lowest start address at-or-after the head position goes first, wrapping
to the lowest address when the sweep passes the end.  This shapes the seek
traces of Fig. 5.

Like the Linux ``deadline`` scheduler whose policy it copies, the queue
pairs the policy with the structures that make it cheap on a deep queue:
a per-file index of queued writes (``fsync`` kicks), the set of plugged
async writes (memory-pressure kicks) and a per-spindle, per-class order
by submit time (deadline picks).  Every entry point then costs what it
touches plus a bisect, never a walk of the whole queue.
"""

from __future__ import annotations

import bisect
import typing as _t
from dataclasses import dataclass, field

from repro.core.kernel.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects

READ = "read"
WRITE = "write"


@dataclass
class BlockRequest:
    """One block-layer I/O request against the shared volume.

    ``start``/``length`` are byte addresses on the flat volume address
    space.  ``completion`` fires when the disk array finishes the request
    (or the request it was merged into).
    """

    op: str
    start: int
    length: int
    client_id: int
    file_id: int
    submit_time: float
    completion: Event
    #: A synchronous request (the application is waiting on it): never
    #: plugged, dispatched as soon as the elevator reaches it.  Async
    #: writeback requests are plugged so neighbours can merge in.
    sync: bool = False
    #: Requests absorbed into this one by merging.
    merged: _t.List["BlockRequest"] = field(default_factory=list)
    #: Causal-trace id of the logical update that issued this request
    #: (None when tracing is off or the request is not part of a write).
    trace_update: _t.Optional[int] = None
    #: Write-generation fencing token (DESIGN §8): stamped from the
    #: owning block device at submission.  The array rejects a WRITE
    #: whose generation is below the client's fence generation -- the
    #: SCSI persistent-reservation analogue that keeps a
    #: reclaimed-but-alive client from scribbling over re-allocated
    #: blocks.
    write_generation: int = 0
    #: Cached owning spindle of ``start``.  The start address never
    #: changes after submission (merges only extend ``length``), so the
    #: striping function is evaluated at most once per request instead of
    #: on every elevator scan.
    spindle: _t.Optional[int] = None
    #: Set by the owning queue at insertion and lower for every later
    #: insertion: the newest of several requests with one start sorts
    #: first, as in the start-sorted views (``bisect_left`` inserts
    #: before equal starts).  Breaks deadline-order ties in view order.
    queue_rank: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ValueError(f"bad op {self.op!r}")
        if self.start < 0 or self.length <= 0:
            raise ValueError(
                f"bad extent start={self.start} length={self.length}"
            )

    @property
    def end(self) -> int:
        return self.start + self.length

    def complete_all(self) -> None:
        """Fire completion for this request and everything merged into it."""
        self.completion.succeed()
        for sub in self.merged:
            sub.complete_all()

    def count_all(self) -> int:
        """Number of original submissions represented (self + merged)."""
        return 1 + sum(sub.count_all() for sub in self.merged)

    def trace_updates(self) -> _t.Tuple[int, ...]:
        """Update ids of this request and everything merged into it."""
        ids: _t.List[int] = []
        if self.trace_update is not None:
            ids.append(self.trace_update)
        for sub in self.merged:
            ids.extend(sub.trace_updates())
        return tuple(ids)

    def __repr__(self) -> str:
        return (
            f"<BlockRequest {self.op} [{self.start}, {self.end}) "
            f"client={self.client_id} file={self.file_id}>"
        )


@dataclass
class SchedulerStats:
    """Counters from which the I/O merge ratio (Fig. 4) is computed."""

    submitted: int = 0
    dispatched: int = 0
    #: Original submissions carried by dispatched requests (a dispatch
    #: of a request with three merged neighbours counts four).
    dispatched_submissions: int = 0
    merges: int = 0
    bytes_submitted: int = 0

    @property
    def merge_ratio(self) -> float:
        """Submitted requests per dispatched disk operation (>= 1.0).

        Computed over *dispatched* work only, so a still-queued backlog
        at the end of a run does not inflate the ratio.
        """
        if self.dispatched == 0:
            return 1.0
        return self.dispatched_submissions / self.dispatched

    def merged_into(self, other: "SchedulerStats") -> None:
        other.submitted += self.submitted
        other.dispatched += self.dispatched
        other.dispatched_submissions += self.dispatched_submissions
        other.merges += self.merges
        other.bytes_submitted += self.bytes_submitted


class ElevatorScheduler:
    """C-LOOK elevator queue with contiguous-request merging.

    Parameters
    ----------
    env:
        Simulation environment.
    client_id:
        Owning client (queues are per-client, as in the paper's setup).
    max_merge_bytes:
        Upper bound on a merged request's size, mirroring the block
        layer's ``max_sectors`` limit.
    """

    def __init__(
        self,
        env: "Effects",
        client_id: int,
        max_merge_bytes: int = 512 * 1024,
        read_deadline: float = 0.05,
        write_deadline: float = 0.5,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.max_merge_bytes = max_merge_bytes
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        #: Anti-starvation deadlines (the Linux ``deadline`` scheduler's
        #: idea): a request older than its deadline is served before the
        #: C-LOOK sweep continues.  Without this, an ever-advancing write
        #: frontier starves reads behind the head indefinitely.
        self.read_deadline = read_deadline
        self.write_deadline = write_deadline
        #: Requests waiting for dispatch, kept sorted by start address.
        self._queue: _t.List[BlockRequest] = []
        self._starts: _t.List[int] = []
        #: Last ``queue_rank`` handed out.
        self._rank = 0
        #: Queued WRITEs by file (``expedite_file``): the file's one
        #: request, or a dict of them keyed by ``id`` when it has several
        #: (most files have one, and a dict each would outweigh the
        #: queue).  Merged-in requests are never listed: like the scans
        #: these replace, a kick matches the queued request, not what was
        #: merged into it.
        self._writes_by_file: _t.Dict[
            int, _t.Union[BlockRequest, _t.Dict[int, BlockRequest]]
        ] = {}
        #: The queued async WRITEs, i.e. the plugged ones
        #: (``expedite_all_writes``), keyed by ``id``.
        self._plugged: _t.Dict[int, BlockRequest] = {}
        self.stats = SchedulerStats()
        #: Called with the spindles whose queued requests just changed
        #: (a submission, a merge, an expedite) whenever a request may
        #: have become available.
        self.on_submit: _t.Optional[
            _t.Callable[[_t.Iterable[int]], None]
        ] = None
        #: Like :attr:`on_submit` for a change that makes nothing
        #: available and so wakes nobody (:meth:`drop_all`).
        self.on_drop: _t.Optional[
            _t.Callable[[_t.Iterable[int]], None]
        ] = None
        #: The owning array's striping function (see
        #: :meth:`set_spindle_map`); ``None`` for standalone schedulers,
        #: which only support :meth:`pop_next`.
        self.spindle_map: _t.Optional[_t.Callable[[int], int]] = None
        #: Per-spindle views of the queue (parallel start/request lists,
        #: each sorted by start), maintained once a spindle map is
        #: installed.  Within one spindle the view preserves the main
        #: queue's order (same bisect policy), so every pick is identical
        #: to a filtered scan of the whole queue.
        self._sp_queue: _t.Optional[_t.Dict[int, _t.List[BlockRequest]]] = (
            None
        )
        self._sp_starts: _t.Dict[int, _t.List[int]] = {}
        #: The same requests per class and spindle in deadline order:
        #: sorted ``(submit_time, start, queue_rank, request)`` entries,
        #: i.e. oldest first, ties in view order.
        self._due: _t.Dict[str, _t.Dict[int, _t.List[_t.Tuple]]] = {
            READ: {},
            WRITE: {},
        }
        #: Queued READs per spindle, a list shared by every queue of one
        #: array and kept current by each of them (see
        #: :meth:`set_spindle_map`); ``None`` when nobody shares one.
        self.queued_reads: _t.Optional[_t.List[int]] = None

    def set_spindle_map(
        self,
        spindle_of: _t.Callable[[int], int],
        queued_reads: _t.Optional[_t.List[int]] = None,
    ) -> None:
        """Install the array's address->spindle function.

        Caches each queued request's spindle and starts maintaining the
        per-spindle views and deadline orders the ``*_for_spindle``
        methods need.  ``queued_reads``, when given, is a per-spindle
        count this queue adds its queued READs to, now and as they come
        and go, so the owner can tell at once that no queue holds a READ
        for a spindle.
        """
        self.spindle_map = spindle_of
        sp_queue: _t.Dict[int, _t.List[BlockRequest]] = {}
        sp_starts: _t.Dict[int, _t.List[int]] = {}
        due: _t.Dict[str, _t.Dict[int, _t.List[_t.Tuple]]] = {
            READ: {},
            WRITE: {},
        }
        # The main queue is sorted by start, so appending in order
        # leaves every per-spindle view sorted with the same relative
        # order among equal starts.
        for request in self._queue:
            sp = spindle_of(request.start)
            request.spindle = sp
            sp_queue.setdefault(sp, []).append(request)
            sp_starts.setdefault(sp, []).append(request.start)
            due[request.op].setdefault(sp, []).append(
                (request.submit_time, request.start, request.queue_rank, request)
            )
        for orders in due.values():
            for order in orders.values():
                order.sort()
        self._sp_queue = sp_queue
        self._sp_starts = sp_starts
        self._due = due
        self.queued_reads = queued_reads
        if queued_reads is not None:
            for sp, order in due[READ].items():
                queued_reads[sp] += len(order)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> _t.Sequence[BlockRequest]:
        return tuple(self._queue)

    # -- submission with merging -------------------------------------------

    def submit(self, request: BlockRequest) -> None:
        """Queue ``request``, merging it into a neighbour if contiguous."""
        self.stats.submitted += 1
        self.stats.bytes_submitted += request.length

        touched = self._try_merge(request)
        if touched is None:
            self._enqueue(request)
            touched = (request.spindle,)

        if self.on_submit is not None:
            self.on_submit(touched)

    def _enqueue(self, request: BlockRequest) -> None:
        """Insert ``request`` into the queue and every index."""
        self._rank -= 1
        request.queue_rank = rank = self._rank
        start = request.start
        idx = bisect.bisect_left(self._starts, start)
        self._queue.insert(idx, request)
        self._starts.insert(idx, start)
        op = request.op
        if op == WRITE:
            files = self._writes_by_file
            heads = files.get(request.file_id)
            if heads is None:
                files[request.file_id] = request
            elif type(heads) is dict:
                heads[id(request)] = request
            else:
                files[request.file_id] = {id(heads): heads, id(request): request}
            if not request.sync:
                self._plugged[id(request)] = request
        table = self._sp_queue
        if table is None:
            return
        sp = request.spindle
        if sp is None:
            sp = request.spindle = self.spindle_map(start)
        entry = (request.submit_time, start, rank, request)
        order = self._due[op].get(sp)
        if order is None:
            self._due[op][sp] = [entry]
        else:
            bisect.insort(order, entry)
        if op == READ and self.queued_reads is not None:
            self.queued_reads[sp] += 1
        reqs = table.get(sp)
        if reqs is None:
            table[sp] = [request]
            self._sp_starts[sp] = [start]
        else:
            # bisect_left on both lists keeps equal-start runs in the
            # same relative order as the main queue.
            starts = self._sp_starts[sp]
            idx = bisect.bisect_left(starts, start)
            reqs.insert(idx, request)
            starts.insert(idx, start)

    def _dequeue(
        self, request: BlockRequest, idx: _t.Optional[int] = None
    ) -> None:
        """Remove ``request`` (at ``idx`` of the main queue, when known)
        from the queue and every index."""
        queue = self._queue
        start = request.start
        if idx is None:
            idx = bisect.bisect_left(self._starts, start)
            while queue[idx] is not request:
                idx += 1
        queue.pop(idx)
        self._starts.pop(idx)
        op = request.op
        if op == WRITE:
            files = self._writes_by_file
            heads = files[request.file_id]
            if heads is request:
                del files[request.file_id]
            else:
                del heads[id(request)]
                if len(heads) == 1:
                    (files[request.file_id],) = heads.values()
            self._plugged.pop(id(request), None)
        table = self._sp_queue
        if table is None:
            return
        sp = request.spindle
        if op == READ and self.queued_reads is not None:
            self.queued_reads[sp] -= 1
        order = self._due[op][sp]
        # A 3-tuple sorts just before the one entry it prefixes.
        del order[
            bisect.bisect_left(
                order, (request.submit_time, start, request.queue_rank)
            )
        ]
        reqs = table[sp]
        starts = self._sp_starts[sp]
        idx = bisect.bisect_left(starts, start)
        while reqs[idx] is not request:
            idx += 1
        reqs.pop(idx)
        starts.pop(idx)

    def _try_merge(
        self, request: BlockRequest
    ) -> _t.Optional[_t.Tuple[_t.Optional[int], ...]]:
        """Attempt a back- or front-merge with a queued request.

        Returns the spindles whose views the merge touched, or ``None``
        if ``request`` merged with nothing.
        """
        # Back merge: queued request ends where the new one starts.
        idx = bisect.bisect_right(self._starts, request.start) - 1
        if 0 <= idx < len(self._queue):
            head = self._queue[idx]
            if (
                head.op == request.op
                and head.end == request.start
                and head.length + request.length <= self.max_merge_bytes
                and head.write_generation == request.write_generation
            ):
                head.merged.append(request)
                head.length += request.length
                self.stats.merges += 1
                self._record_merge(request, head, "back")
                return (head.spindle,)

        # Front merge: new request ends where a queued one starts.
        idx = bisect.bisect_left(self._starts, request.end)
        if 0 <= idx < len(self._queue):
            tail = self._queue[idx]
            if (
                tail.op == request.op
                and request.end == tail.start
                and tail.length + request.length <= self.max_merge_bytes
                and tail.write_generation == request.write_generation
            ):
                # The new request becomes the head of the merged pair.
                self._dequeue(tail, idx)
                request.merged.append(tail)
                request.length += tail.length
                self._enqueue(request)
                self.stats.merges += 1
                self._record_merge(tail, request, "front")
                # The pair now belongs to the spindle of the new start,
                # which a merge across a stripe boundary changes.
                return (request.spindle, tail.spindle)

        return None

    def _record_merge(
        self, absorbed: BlockRequest, into: BlockRequest, kind: str
    ) -> None:
        if self.obs is None:
            return
        self.obs.tracer.instant(
            "blk_merge",
            "blk",
            node=f"client-{self.client_id}",
            actor="elevator",
            update_ids=into.trace_updates(),
            merge_kind=kind,
            start=into.start,
            length=into.length,
        )
        self.obs.registry.counter("blk.merges").inc()

    # -- dispatch ------------------------------------------------------------

    def pop_next(self, head_position: int) -> BlockRequest:
        """Remove and return the next request in C-LOOK order.

        The request with the smallest start address at or after
        ``head_position`` is chosen; if the sweep has passed every queued
        request, it wraps to the lowest address.
        """
        if not self._queue:
            raise IndexError("scheduler queue is empty")
        idx = bisect.bisect_left(self._starts, head_position)
        if idx >= len(self._queue):
            idx = 0  # C-LOOK wrap.
        request = self._queue[idx]
        self._dequeue(request, idx)
        self.stats.dispatched += 1
        self.stats.dispatched_submissions += request.count_all()
        return request

    def _view(self, spindle_id: int) -> _t.Optional[_t.List[BlockRequest]]:
        """The queued requests owned by one spindle, sorted by start."""
        if self._sp_queue is None:
            raise RuntimeError("install a spindle map first")
        return self._sp_queue.get(spindle_id)

    def pop_next_for_spindle(
        self,
        head_position: int,
        spindle_id: int,
        op: _t.Optional[str] = None,
        write_plug: float = 0.0,
    ) -> _t.Optional[BlockRequest]:
        """Deadline-then-C-LOOK pop restricted to one spindle's requests.

        A request belongs to the spindle of its start address under the
        installed spindle map.  Requests past their deadline are served
        oldest-first before the sweep continues.  ``op`` restricts the
        pick to reads or writes (the array uses this for its global read
        preference).  ``write_plug`` holds writes younger than the given
        age in the queue -- the block layer's *plugging*, which lets a
        burst of contiguous submissions coalesce before dispatch.
        Returns ``None`` when no matching request is queued.
        """
        queue = self._view(spindle_id)
        if not queue:
            return None
        now = self.env.now
        request = self._oldest_expired(spindle_id, op, now, write_plug)
        if request is None:
            # C-LOOK: the first dispatchable request at or after the
            # head, else (wrapping) the first one before it.
            n = len(queue)
            first = bisect.bisect_left(
                self._sp_starts[spindle_id], head_position
            )
            for idx in range(first, first + n):
                request = queue[idx % n]
                if op is not None and request.op != op:
                    continue
                if (
                    write_plug > 0.0
                    and request.op == WRITE
                    and not request.sync
                    and now - request.submit_time < write_plug
                ):
                    continue  # still plugged: let neighbours merge in
                break
            else:
                return None
        self._dequeue(request)
        self.stats.dispatched += 1
        self.stats.dispatched_submissions += request.count_all()
        return request

    def _oldest_expired(
        self,
        spindle_id: int,
        op: _t.Optional[str],
        now: float,
        write_plug: float,
    ) -> _t.Optional[BlockRequest]:
        """The deadline rule: the oldest dispatchable request of class
        ``op`` (of either class for ``None``) past its deadline, ties in
        view order, or ``None`` without one."""
        best = None
        for cls in (READ, WRITE) if op is None else (op,):
            deadline = (
                self.read_deadline if cls == READ else self.write_deadline
            )
            for entry in self._due[cls].get(spindle_id, ()):
                age = now - entry[0]
                if not age > deadline:
                    break  # so is every younger one
                if (
                    cls == WRITE
                    and write_plug > 0.0
                    and age < write_plug
                    and not entry[3].sync
                ):
                    continue  # a plug outlasting the deadline
                if best is None or entry < best:
                    best = entry
                break
        return None if best is None else best[3]

    def has_request_for_spindle(
        self, spindle_id: int, op: _t.Optional[str] = None
    ) -> bool:
        """Whether any request (of class ``op``) is queued for the spindle."""
        if op is None or self._sp_queue is None:
            return bool(self._view(spindle_id))
        return bool(self._due[op].get(spindle_id))

    def oldest_plugged_submit(self, spindle_id: int) -> _t.Optional[float]:
        """Submit time of the oldest async write queued for this spindle
        (the one whose plug expires first), or ``None`` without any."""
        self._view(spindle_id)  # raises without a spindle map
        for entry in self._due[WRITE].get(spindle_id, ()):
            if not entry[3].sync:  # a sync write is never plugged
                return entry[0]
        return None

    def drop_all(self) -> int:
        """Discard every queued request (single-node death).

        The completion events of dropped requests (and of everything
        merged into them) never fire -- only processes on the dead node
        wait on them, and those are parked anyway.  Returns the number of
        queue entries dropped (merged groups count once, matching
        ``len()``).
        """
        dropped = len(self._queue)
        self._queue.clear()
        self._starts.clear()
        self._writes_by_file.clear()
        self._plugged.clear()
        if self._sp_queue is not None:
            touched = [sp for sp, reqs in self._sp_queue.items() if reqs]
            if self.queued_reads is not None:
                for sp, order in self._due[READ].items():
                    self.queued_reads[sp] -= len(order)
            self._sp_queue.clear()
            self._sp_starts.clear()
            for orders in self._due.values():
                orders.clear()
            if touched and self.on_drop is not None:
                self.on_drop(touched)
        return dropped

    def expedite_file(self, file_id: int) -> None:
        """Unplug every queued write of ``file_id`` (fsync kicks
        writeback: plugged async writes become dispatchable at once)."""
        heads = self._writes_by_file.get(file_id)
        if heads is None:
            return
        plugged = self._plugged
        touched = set()
        for request in heads.values() if type(heads) is dict else (heads,):
            request.sync = True
            plugged.pop(id(request), None)
            touched.add(request.spindle)
        if self.on_submit is not None:
            self.on_submit(touched)

    def expedite_all_writes(self) -> None:
        """Unplug everything (memory-pressure writeback kick)."""
        if not self._plugged:
            return
        touched = set()
        for request in self._plugged.values():
            request.sync = True
            touched.add(request.spindle)
        self._plugged.clear()
        if self.on_submit is not None:
            self.on_submit(touched)
