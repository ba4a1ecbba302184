"""The virtual clock and event calendar.

:class:`Environment` owns the calendar: one binary heap (a plain list
under :mod:`heapq`) of ``(time, priority, sequence, event, push_time)``
entries.  :meth:`Environment.schedule` is the one place an entry is
pushed; :meth:`Environment.step` pops the earliest entry, advances
``now`` and runs the event's callbacks; :meth:`Environment.run` steps
until the calendar empties, a deadline passes, or a given event fires,
with the pop inlined in its loop.

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
the environment compacts the heap when cancelled entries outnumber live
ones, so retry/backoff churn cannot bloat the calendar.

The cyclic collector
--------------------
:meth:`Environment.run` turns CPython's cyclic garbage collector off
for its loop and puts the caller's setting back on every exit.  A
model's garbage is freed by reference counting; what the collector's
young passes would find inside a run is nothing, so they cost host time
alone.  Discarded simulations *are* cyclic garbage, so a run that ends
with the Python heap a quarter larger than after the last full pass runs one
(see :class:`_CollectorPause`).
"""

from __future__ import annotations

import gc as _gc
import heapq
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
_INF = float("inf")

#: Recycled Timeout objects kept per environment (see ``Environment.timeout``).
_TIMEOUT_POOL_MAX = 1024


def _sole_refcount() -> int:
    """What ``getrefcount`` reads for a Timeout held by one local only.

    The dispatch loops read the same count on a popped Timeout (held by
    their ``event`` local alone once the entry tuple is gone) to decide
    that nothing else can see it.  The number is the interpreter's, not
    the model's: the call convention adds a reference for the argument
    on some versions and not on others, so it is measured here, from a
    call site shaped like theirs, rather than written down.
    """
    timer = Timeout.__new__(Timeout)
    return _getrefcount(timer)


#: ``getrefcount`` of a popped Timeout nobody else references.
_SOLE_REFS = _sole_refcount()

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
        "_heap",
        "_seq",
        "_active_process",
        "obs",
        "probe",
        "_timeout_pool",
        "_cancelled",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: The calendar: a binary heap of :data:`Entry` tuples.  Never
        #: rebound (compaction rewrites it in place), so the dispatch
        #: loops may keep it in a local.
        self._heap: _t.List[Entry] = []
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
        return len(self._heap)

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
        _heappush(self._heap, (now + delay, priority, seq, event, now))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none.

        A cancelled-but-unpopped timeout still counts -- its tombstone
        occupies the slot until swept.
        """
        heap = self._heap
        return heap[0][0] if heap else _INF

    def _note_cancelled(self) -> None:
        """A queued entry was tombstoned (see ``Timeout.cancel``).

        When tombstones outnumber live entries the heap is compacted, so
        repeated cancel/reschedule churn (RPC retry timers, backoff)
        keeps the calendar bounded by the *live* event count.  Entries
        are unique under ``(time, priority, seq)``, so re-heapifying the
        survivors leaves the pop order as it was.
        """
        cancelled = self._cancelled + 1
        heap = self._heap
        if cancelled >= 64 and (cancelled << 1) > len(heap):
            heap[:] = [e for e in heap if e[3].callbacks is not None]
            _heapify(heap)
            self._cancelled = 0
        else:
            self._cancelled = cancelled

    def step(self) -> None:
        """Process the next scheduled event (skipping tombstones).

        Raises
        ------
        SimulationError
            If the calendar is empty, or the event failed and nobody
            defused the failure.
        """
        heap = self._heap
        if not heap:
            raise SimulationError(
                "cannot step: the event calendar is empty"
            )
        pool = self._timeout_pool
        callbacks = None
        while callbacks is None and heap:
            when, _prio, _seq, event, pushed = _heappop(heap)
            callbacks = event.callbacks
            if callbacks is None:
                # Tombstone: a timeout cancelled after scheduling.
                self._cancelled -= 1
            else:
                self._now = when
                if self.probe is not None:
                    self.probe.on_step(when - pushed, len(heap) + 1)
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    cause = event._value
                    raise SimulationError(
                        f"unhandled failure in {event!r}: {cause!r}"
                    ) from cause
            if (
                type(event) is Timeout
                and _getrefcount(event) == _SOLE_REFS
                and len(pool) < _TIMEOUT_POOL_MAX
            ):
                pool.append(event)

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
            # event differs.  The heap is never rebound, so the local
            # alias stays valid across callbacks that schedule.
            #
            # Free list: a popped Timeout that only ``event`` still
            # references goes back to the pool (see :meth:`timeout`);
            # the exact-type test keeps subclasses, which may carry
            # extra state, out of it.
            heap = self._heap
            if self.probe is None:
                heappop = _heappop
                getrefcount = _getrefcount
                sole = _SOLE_REFS
                pool = self._timeout_pool
                while heap:
                    when, _prio, _seq, event, _pushed = heappop(heap)
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Tombstone (cancelled timeout): skip.
                        self._cancelled -= 1
                    else:
                        self._now = when
                        event.callbacks = None
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            cause = event._value
                            raise SimulationError(
                                f"unhandled failure in {event!r}: {cause!r}"
                            ) from cause
                    if (
                        type(event) is Timeout
                        and getrefcount(event) == sole
                        and len(pool) < _TIMEOUT_POOL_MAX
                    ):
                        pool.append(event)
            else:
                while heap:
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
