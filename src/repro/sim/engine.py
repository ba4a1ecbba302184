"""The virtual clock and event calendar.

:class:`Environment` owns a :class:`CalendarQueue` of ``(time, priority,
sequence, event)`` entries.  :meth:`Environment.step` pops the earliest
entry, advances ``now`` and runs the event's callbacks;
:meth:`Environment.run` steps until the calendar empties, a deadline
passes, or a given event fires.

:class:`CalendarQueue` is a bucketed calendar queue in the style of
Brown (CACM 1988): events hash into ``floor(t / width)`` buckets over a
power-of-two ring, the current bucket serves pops in O(1) amortized, and
far-future events (lease expiries, retry backoff) park in a binary-heap
overflow lane until the bucket horizon reaches them.  Bucket count and
width resize themselves from the observed event population (see
``_rebuild``).  Its pop order is exactly that of one global binary heap
over the same entries; the tests keep such a heap
(``tests/sim/reference_heap.py``) and diff the two.

Determinism
-----------
Entries are totally ordered: ties on time break on priority (urgent events
such as process initialisation fire first), then on a monotonically
increasing sequence number.  Two runs of the same model with the same RNG
seeds therefore produce identical traces -- a property the reproduction's
tests rely on heavily.

Cancelled timeouts
------------------
:meth:`~repro.core.kernel.events.Timeout.cancel` tombstones an entry in place
(its callback list becomes ``None``); the pop loops skip tombstones, and
the environment compacts the scheduler when cancelled entries outnumber
live ones, so retry/backoff churn cannot bloat the calendar.

The cyclic collector
--------------------
:meth:`Environment.run` turns CPython's cyclic garbage collector off
for its loop and puts the caller's setting back on every exit.  A
model's garbage is freed by reference counting; what the collector's
young passes would find inside a run is nothing, so they cost host time
alone.  Discarded simulations *are* cyclic garbage, so a run that ends
with the heap a quarter larger than after the last full pass runs one
(see :class:`_CollectorPause`).
"""

from __future__ import annotations

import gc as _gc
import heapq
import math
import typing as _t
from sys import getallocatedblocks as _getallocatedblocks
from sys import getrefcount as _getrefcount

from repro.core.effects import Effects
from repro.core.kernel.events import PRIORITY_NORMAL, Event, Timeout
from repro.core.kernel.process import Process

# Bound once at import: the calendar operations run once per simulated
# event, so even the ``heapq.`` attribute lookup is measurable.
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify
_floor = math.floor
_INF = float("inf")

#: Recycled Timeout objects kept per environment (see ``Environment.timeout``).
_TIMEOUT_POOL_MAX = 1024

#: Entry tuple: (time, priority, seq, event, push_time).  The trailing
#: push-time element never participates in ordering (the sequence number
#: is unique); it feeds the event-loop-lag probe when one is installed.
Entry = _t.Tuple[float, int, int, Event, float]


class SimulationError(Exception):
    """An unhandled failure escaped from the simulation."""


class _StopRun(Exception):
    """Internal: raised by the until-event callback to end ``run``."""

    def __init__(self, event: Event) -> None:
        self.event = event


class CalendarQueue:
    """Bucketed calendar queue with a far-future overflow heap.

    Entries hash into ``floor(t / width) & (nbuckets - 1)`` buckets (each
    bucket a tiny heap, so intra-bucket priority/sequence ties stay
    exact).  A pop serves the current bucket if its head falls inside the
    bucket's current "year" window; otherwise the scan rotates forward
    one bucket-width at a time.  Entries beyond the ring's horizon
    (``nbuckets * width`` ahead) park in a binary-heap overflow lane and
    migrate into buckets as the horizon advances -- the migration is what
    keeps the **invariant that every overflow entry sorts after every
    bucketed entry**, which in turn is what makes the current-bucket fast
    path safe.

    Resizing: the bucket ring doubles when the population exceeds two
    entries per bucket and halves when it drops below one per two
    buckets; each rebuild re-tunes the bucket width to three times the
    median inter-event gap, snapped to a power of two so boundary
    arithmetic stays exact (no bucket-edge float drift).
    """

    MIN_BUCKETS = 16
    MAX_BUCKETS = 1 << 17

    __slots__ = (
        "_buckets",
        "_nbuckets",
        "_mask",
        "_width",
        "_cur",
        "_bucket_top",
        "_horizon",
        "_overflow",
        "_size",
        "_last",
    )

    def __init__(self, start: float = 0.0, width: float = 2.0 ** -14) -> None:
        self._overflow: _t.List[Entry] = []
        self._size = 0
        self._last = start
        self._layout(self.MIN_BUCKETS, width, start)

    def __len__(self) -> int:
        return self._size

    # -- geometry ----------------------------------------------------------

    def _layout(self, nbuckets: int, width: float, start: float) -> None:
        """(Re)build an empty ring anchored so ``start`` is in-window."""
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = width
        self._buckets: _t.List[_t.List[Entry]] = [
            [] for _ in range(nbuckets)
        ]
        k = _floor(start / width)
        self._cur = k & self._mask
        self._bucket_top = (k + 1.0) * width
        self._horizon = self._bucket_top + (nbuckets - 1) * width

    def _rebuild(self, nbuckets: int) -> None:
        entries = [e for bucket in self._buckets for e in bucket]
        entries.extend(self._overflow)
        self._overflow = []
        width = self._tuned_width(entries) or self._width
        self._layout(nbuckets, width, self._last)
        horizon = self._horizon
        mask = self._mask
        buckets = self._buckets
        overflow = self._overflow
        for entry in entries:
            t = entry[0]
            if t < horizon:
                _heappush(buckets[_floor(t / width) & mask], entry)
            else:
                _heappush(overflow, entry)

    def _tuned_width(self, entries: _t.List[Entry]) -> _t.Optional[float]:
        """Three times the median inter-event gap, snapped to 2**k."""
        if len(entries) < 2:
            return None
        times = sorted(e[0] for e in entries if e[0] != _INF)
        gaps = sorted(
            b - a for a, b in zip(times, times[1:]) if b > a
        )
        if not gaps:
            return None
        target = 3.0 * gaps[len(gaps) // 2]
        return 2.0 ** max(-60, min(20, round(math.log2(target))))

    # -- scheduler surface -------------------------------------------------

    def push(self, entry: Entry) -> None:
        t = entry[0]
        if t < self._horizon:
            _heappush(
                self._buckets[_floor(t / self._width) & self._mask], entry
            )
        else:
            _heappush(self._overflow, entry)
        size = self._size + 1
        self._size = size
        if size > (self._nbuckets << 1) and self._nbuckets < self.MAX_BUCKETS:
            self._rebuild(self._nbuckets << 1)

    def pop(self) -> _t.Optional[Entry]:
        """Earliest entry, or ``None`` when empty (never raises)."""
        if self._size == 0:
            return None
        bucket = self._buckets[self._cur]
        if bucket and bucket[0][0] < self._bucket_top:
            self._size -= 1
            entry = _heappop(bucket)
            self._last = entry[0]
            return entry
        return self._pop_slow()

    def _pop_slow(self) -> Entry:
        """Rotate the ring forward; fall back to a direct min search."""
        if (
            self._size < (self._nbuckets >> 1)
            and self._nbuckets > self.MIN_BUCKETS
        ):
            # Sparse ring: shrinking re-anchors the window at the last
            # popped time, which usually makes the next pop O(1) again.
            # Retry from the top -- the re-anchored *current* bucket may
            # now hold the minimum, and the rotation below starts by
            # advancing past it.
            self._rebuild(self._nbuckets >> 1)
            return self.pop()
        buckets = self._buckets
        width = self._width
        mask = self._mask
        overflow = self._overflow
        i = self._cur
        top = self._bucket_top
        for _ in range(self._nbuckets):
            i = (i + 1) & mask
            top += width
            horizon = self._horizon + width
            self._horizon = horizon
            # Horizon advanced one bucket: anything in the overflow lane
            # that the window now covers must move into its bucket *now*
            # or a later bucketed entry could be served before it.
            while overflow and overflow[0][0] < horizon:
                moved = _heappop(overflow)
                _heappush(buckets[_floor(moved[0] / width) & mask], moved)
            bucket = buckets[i]
            if bucket and bucket[0][0] < top:
                self._cur = i
                self._bucket_top = top
                self._size -= 1
                entry = _heappop(bucket)
                self._last = entry[0]
                return entry
        return self._pop_direct()

    def _pop_direct(self) -> Entry:
        """No entry within a full rotation: jump to the global minimum.

        Equal times always land in the same bucket, so comparing bucket
        heads (full tuples, so priority/seq ties stay exact) against the
        overflow head finds the true minimum.
        """
        best: _t.Optional[Entry] = None
        for bucket in self._buckets:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        overflow = self._overflow
        if overflow and (best is None or overflow[0] < best):
            best = overflow[0]
        assert best is not None  # _size > 0
        t = best[0]
        if t == _INF:
            # Degenerate (delay=inf): serve straight from the overflow
            # heap; floor(inf / width) has no bucket.
            self._size -= 1
            return _heappop(overflow)
        width = self._width
        mask = self._mask
        k = _floor(t / width)
        self._cur = k & mask
        self._bucket_top = (k + 1.0) * width
        horizon = self._bucket_top + mask * width
        if horizon > self._horizon:
            self._horizon = horizon
            buckets = self._buckets
            while overflow and overflow[0][0] < horizon:
                moved = _heappop(overflow)
                _heappush(buckets[_floor(moved[0] / width) & mask], moved)
        bucket = self._buckets[self._cur]
        if not bucket:
            # t / width >= 2**53 (the width clamps at 2**-60): adding a
            # bucket width to t rounds back to t, the horizon above
            # stopped *at* t, and the minimum was not migrated.  It is
            # still the overflow head; serve it from there.
            bucket = overflow
        self._size -= 1
        entry = _heappop(bucket)
        self._last = entry[0]
        return entry

    def peek_time(self) -> float:
        if self._size == 0:
            return _INF
        bucket = self._buckets[self._cur]
        if bucket and bucket[0][0] < self._bucket_top:
            return bucket[0][0]
        best = _INF
        for bucket in self._buckets:
            if bucket and bucket[0][0] < best:
                best = bucket[0][0]
        overflow = self._overflow
        if overflow and overflow[0][0] < best:
            best = overflow[0][0]
        return best

    def purge_cancelled(self) -> int:
        """Drop tombstoned entries (cancelled events); return the count."""
        removed = 0
        for bucket in self._buckets:
            if bucket:
                keep = [e for e in bucket if e[3].callbacks is not None]
                if len(keep) != len(bucket):
                    removed += len(bucket) - len(keep)
                    _heapify(keep)
                    bucket[:] = keep
        overflow = self._overflow
        keep = [e for e in overflow if e[3].callbacks is not None]
        if len(keep) != len(overflow):
            removed += len(overflow) - len(keep)
            _heapify(keep)
            overflow[:] = keep
        self._size -= removed
        return removed


class Environment(Effects):
    """Execution environment for a single simulation.

    The virtual-time substrate of the effects boundary: it implements
    the :class:`~repro.core.effects.Effects` contract (``now``,
    ``schedule``, tombstone bookkeeping) over a deterministic event
    calendar, and inherits the event factories (``event``, ``process``,
    ``all_of``, ``any_of``, ``active_process``) from it.
    ``repro.sim.SimEffects`` is this class under its effects name.

    Parameters
    ----------
    initial_time:
        The virtual time at which the clock starts (seconds).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active_process",
        "obs",
        "probe",
        "_push",
        "_pop",
        "_timeout_pool",
        "_cancelled",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue = CalendarQueue(start=self._now)
        # Bound methods: one attribute hop saved on the two operations
        # that run once per simulated event.
        self._push = self._queue.push
        self._pop = self._queue.pop
        self._seq = 0
        self._active_process: _t.Optional[Process] = None
        self.obs: _t.Optional[_t.Any] = None
        #: Recycled Timeout objects (see :meth:`timeout`): a popped
        #: Timeout nobody else references goes back here instead of to
        #: the allocator, so steady-state think/RPC-timer churn allocates
        #: near-zero event objects.
        self._timeout_pool: _t.List[Timeout] = []
        #: Cancelled-but-still-queued entries (tombstones).
        self._cancelled = 0
        #: Optional observability probe (see ``repro.obs``): when set,
        #: :meth:`step` reports each event's calendar sojourn time and
        #: the calendar depth.  Recording only -- the probe never alters
        #: scheduling, so traced and untraced runs are identical.
        self.probe: _t.Optional[_t.Any] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events placed on the calendar since construction.

        Monotonic and cheap (it is the ordering sequence number), so
        benchmarks read it as the event count, and tests pin it, without
        perturbing the run.
        """
        return self._seq

    @property
    def pending_events(self) -> int:
        """Entries currently on the calendar (tombstones included)."""
        return len(self._queue)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Overrides :meth:`Effects.timeout` to serve from the
        environment's free list when possible: a recycled Timeout is
        indistinguishable from a fresh one (same state transitions, same
        scheduling order) -- only the allocation is skipped.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            timer = pool.pop()
            timer.callbacks = []
            timer._value = value
            timer._ok = True
            timer._defused = False
            timer.delay = delay
            self.schedule(timer, delay=delay)
            return timer
        return Timeout(self, delay, value)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Place a triggered event on the calendar ``delay`` from now."""
        seq = self._seq
        self._seq = seq + 1
        now = self._now
        self._push((now + delay, priority, seq, event, now))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none.

        A cancelled-but-unpopped timeout still counts -- its tombstone
        occupies the slot until swept.
        """
        return self._queue.peek_time()

    def _note_cancelled(self) -> None:
        """A queued entry was tombstoned (see ``Timeout.cancel``).

        When tombstones outnumber live entries the scheduler is
        compacted, so repeated cancel/reschedule churn (RPC retry timers,
        backoff) keeps the calendar bounded by the *live* event count.
        """
        cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled >= 64 and (cancelled << 1) > len(queue):
            queue.purge_cancelled()
            self._cancelled = 0
        else:
            self._cancelled = cancelled

    def _recycle(self, event: Event) -> None:
        """Return a dead Timeout to the free list if nothing else can see it.

        ``getrefcount == 3`` means the only references are the event
        loop's local, this frame's parameter and getrefcount's own
        argument -- no process, condition or user code holds the object,
        so reuse is invisible.  Exact-type check: subclasses may carry
        extra state we must not resurrect.
        """
        if type(event) is Timeout and _getrefcount(event) == 3:
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                pool.append(event)

    def step(self) -> None:
        """Process the next scheduled event (skipping tombstones).

        Raises
        ------
        SimulationError
            If the calendar is empty, or the event failed and nobody
            defused the failure.
        """
        entry = self._pop()
        if entry is None:
            raise SimulationError(
                "cannot step: the event calendar is empty"
            )
        while True:
            when, _prio, _seq, event, pushed = entry
            del entry
            callbacks = event.callbacks
            if callbacks is not None:
                break
            # Tombstone: a timeout cancelled after scheduling.
            self._cancelled -= 1
            self._recycle(event)
            entry = self._pop()
            if entry is None:
                return  # only tombstones remained; nothing to process
        self._now = when
        if self.probe is not None:
            self.probe.on_step(when - pushed, len(self._queue) + 1)

        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            cause = event._value
            raise SimulationError(
                f"unhandled failure in {event!r}: {cause!r}"
            ) from cause
        self._recycle(event)

    def run(self, until: _t.Union[None, float, Event] = None) -> _t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` -- run until the calendar is empty.
            A number -- run until virtual time reaches it (clock is left at
            exactly ``until``).
            An :class:`Event` -- run until it is processed; its value is
            returned (a failed event re-raises its exception).

        CPython's cyclic collector is off while the calendar runs and is
        put back as the caller had it on every exit, return or raise;
        see :class:`_CollectorPause`.  It is process-wide state: a run
        entered with the collector already off (a run nested in another,
        or a caller that turned it off) leaves it alone.
        """
        if not _gc.isenabled():
            return self._run(until)
        _gc.disable()
        try:
            return self._run(until)
        finally:
            _gc.enable()
            _COLLECTOR.settle()

    def _run(self, until: _t.Union[None, float, Event]) -> _t.Any:
        stop_event: _t.Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: return (or raise) immediately.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                stop_event.callbacks.append(_stop_callback)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise ValueError(
                        f"until={deadline} is in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                # Urgent priority: fire before normal events at `deadline`.
                self.schedule(stop_event, delay=deadline - self._now, priority=-1)
                stop_event.callbacks.append(_stop_callback)

        try:
            # The hot loop.  When no probe is installed :meth:`step` is
            # inlined here with the probe branch hoisted out entirely --
            # the pop order (and therefore every trace) is identical to
            # repeated ``step()`` calls; only the Python overhead per
            # event differs.  The scheduler object is never rebound, so
            # the local aliases stay valid across callbacks that schedule.
            pop = self._pop
            recycle = self._recycle
            if self.probe is None:
                while True:
                    entry = pop()
                    if entry is None:
                        break
                    event = entry[3]
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Tombstone (cancelled timeout): skip.
                        self._cancelled -= 1
                        del entry
                        recycle(event)
                        continue
                    self._now = entry[0]
                    del entry
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        cause = event._value
                        raise SimulationError(
                            f"unhandled failure in {event!r}: {cause!r}"
                        ) from cause
                    recycle(event)
            else:
                queue = self._queue
                while len(queue):
                    self.step()
        except _StopRun as stop:
            event = stop.event
            if event._ok:
                return event._value
            event._defused = True
            raise event._value
        finally:
            if stop_event is not None and stop_event.callbacks is not None:
                try:
                    stop_event.callbacks.remove(_stop_callback)
                except ValueError:  # pragma: no cover
                    pass

        if stop_event is not None and isinstance(until, Event):
            raise SimulationError(
                f"run(until={until!r}) ended before the event fired"
            )
        return None


def _stop_callback(event: Event) -> None:
    raise _StopRun(event)


class _CollectorPause:
    """The full passes a paused :meth:`Environment.run` still owes.

    Pausing the collector inside a run loses nothing the collector would
    find there, but it starves CPython's own full-pass trigger, which
    counts young passes: most allocation now happens where none run, so
    the cyclic garbage of discarded simulations would pile up.  So as a
    paused run ends, :meth:`settle` compares the allocator's blocks in
    use with the count right after the last full pass (anyone's,
    ``gc.collect()`` callers included: a ``gc.callbacks`` hook notes
    each) and runs one full pass when the heap has grown by a quarter,
    the ratio CPython's own trigger uses for its long-lived objects.
    The measure is ``sys.getallocatedblocks()``, a walk over pymalloc's
    pools that allocates nothing; an interpreter without pymalloc
    reports 0, and the comparison then collects at every exit.
    """

    __slots__ = ("heap",)

    def __init__(self) -> None:
        #: Allocator blocks in use after the last full pass; ``None``
        #: until the first paused run ends and the hook is installed.
        self.heap: _t.Optional[int] = None

    def _note_full_pass(
        self, phase: str, info: _t.Dict[str, int]
    ) -> None:
        if phase == "stop" and info["generation"] == 2:
            self.heap = _getallocatedblocks()

    def settle(self) -> None:
        """A paused run has ended and the collector is back on."""
        blocks = _getallocatedblocks()
        heap = self.heap
        if heap is None:
            _gc.callbacks.append(self._note_full_pass)
            self.heap = blocks
        elif 4 * (blocks - heap) >= heap:
            _gc.collect()


_COLLECTOR = _CollectorPause()
