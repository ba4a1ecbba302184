"""Asyncio implementation of the effects boundary.

:class:`AsyncioEffects` lets the kernel primitives (:mod:`repro.core.kernel`)
and everything written against them -- processes, stores, resources,
conditions, the whole protocol layer -- run on a real asyncio event loop:

- ``schedule(event, delay)`` puts the event on the substrate's own
  calendar -- a ready deque for zero delays, a ``(deadline, seq, event)``
  heap for positive ones -- and :meth:`_drain`, the only callback this
  class hands the loop for kernel events, runs their callbacks exactly
  like ``Environment.step`` does (tombstone skip included);
- ``now`` is ``loop.time()`` rebased to the substrate's construction
  instant, so protocol timestamps stay small positive floats as in the
  simulator;
- :meth:`as_future` bridges a kernel event into an awaitable for
  coroutine code (socket readers, server mainloops), and
  :meth:`event_from_future` bridges the other way.

The calendar rule
-----------------
One :meth:`_drain` dispatches ready events FIFO until none is left, then
the earliest deadline if ``loop.time()`` has passed it, and repeats until
nothing is ready and no deadline has passed.  Only then does control go
back to the loop, with at most one ``call_soon`` and one ``call_at``
outstanding.  A chain such as "apply timer fires -> reply -> lock handed
on -> next 20 us apply timer" is therefore served inside one loop tick
whenever real CPU time has already outrun the modelled delay, and
whatever that chain sends leaves in one socket write
(:mod:`repro.rt.framing`).

- A timer never fires early: its deadline is compared with a
  ``loop.time()`` read *after* the previous dispatch.  Equal deadlines
  fire in schedule order.  ``priority`` is ignored.
- A cancelled ``Timeout`` (tombstone) is skipped when popped, and is
  never the deadline the ``call_at`` is armed for: a drain pops
  tombstones off the head of the heap before it arms.
- An exception escaping one event's callbacks is reported through the
  loop's exception handler; the events queued behind it still run.
- Events scheduled from outside a drain (a socket reader, an asyncio
  task) arm the ``call_soon``; events scheduled inside one arm nothing,
  the running drain will reach them.

A drain's work is bounded by what is in hand: new requests and replies
enter only through loop callbacks (socket readers), which cannot run
while a drain does, so every protocol chain ends at a wait for I/O or
for a deadline that has not passed.  The one known limit: a process
that re-arms an already-due event forever (``while True: yield
env.timeout(0)``, or a delay shorter than its own step) never returns
control to the loop -- it would pin ``Environment.run`` the same way.

What is *not* provided here: the deterministic ``(time, priority, seq)``
total order across runs.  A drain serves the events in hand in the
simulator's order -- zero-delay events FIFO, timers by ``(deadline,
seq)`` -- but which events are in hand depends on when the sockets
delivered them and how much real time the callbacks took; two runs of
the same workload on this substrate will interleave differently.  The
protocol stack is already correct under that weaker contract -- the
simulator's fault schedules explore far harsher reorderings -- but
trace byte-identity is a SimEffects-only property (DESIGN §16).
"""

from __future__ import annotations

import asyncio
import heapq
import typing as _t
from collections import deque

from repro.core.effects import Effects
from repro.core.kernel.events import PRIORITY_NORMAL, Event
from repro.core.kernel.process import Process

__all__ = ["AsyncioEffects"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class AsyncioEffects(Effects):
    """Real-time substrate over an asyncio event loop.

    Construct it *inside* a running loop (or pass one explicitly).  All
    kernel interaction must happen on that loop's thread -- the kernel
    primitives are as thread-naive as asyncio itself.
    """

    #: ``selectors``' epoll / poll round every timeout up to whole
    #: milliseconds.
    resolution = 1e-3

    def __init__(
        self, loop: _t.Optional[asyncio.AbstractEventLoop] = None
    ) -> None:
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = asyncio.new_event_loop()
                asyncio.set_event_loop(loop)
        self._loop = loop
        self._epoch = self._loop.time()
        self._active_process: _t.Optional[Process] = None
        #: Unhandled event failures (nothing yielded on the failed event
        #: and nobody defused it).  The simulator raises out of ``run``;
        #: an asyncio callback has no caller to raise into, so failures
        #: are recorded here and re-raised by :meth:`check_failures` /
        #: the next :meth:`as_future` awaiter.
        self.failures: _t.List[BaseException] = []
        #: The calendar: zero-delay events in schedule order, and
        #: ``(absolute loop deadline, seq, event)`` for the rest.
        self._ready: _t.Deque[Event] = deque()
        self._timers: _t.List[_t.Tuple[float, int, Event]] = []
        self._seq = 0
        self._draining = False
        #: The two loop handles a calendar can have outstanding.
        self._wake_armed = False
        self._alarm_handle: _t.Optional[asyncio.TimerHandle] = None
        #: How well the calendar batched: drains run (loop ticks spent
        #: on kernel events) and events dispatched by them.
        self.drains = 0
        self.events_dispatched = 0

    # -- substrate contract ------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of monotonic real time since substrate construction."""
        return self._loop.time() - self._epoch

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Put ``event`` on the calendar, due ``delay`` seconds from now.

        ``priority`` is accepted for interface compatibility and
        ignored: zero-delay events dispatch in schedule order.  Protocol
        code never depends on the urgent band for correctness (it exists
        so the simulator initialises processes before same-instant user
        events; here the equivalent FIFO order holds anyway).
        """
        if delay <= 0.0:
            self._ready.append(event)
        else:
            seq = self._seq
            self._seq = seq + 1
            _heappush(
                self._timers, (self._loop.time() + delay, seq, event)
            )
        if not self._draining and not self._wake_armed:
            # From outside a drain: one hop for everything scheduled
            # until it runs; the drain arms the alarm for what is left.
            self._arm_wake()

    def _arm_wake(self) -> None:
        self._wake_armed = True
        self._loop.call_soon(self._wake)

    def _wake(self) -> None:
        self._wake_armed = False
        self._drain()

    def _alarm(self) -> None:
        self._alarm_handle = None
        self._drain()

    def _drain(self) -> None:
        """Dispatch until nothing is ready and no deadline has passed.

        Each dispatch is ``Environment.step`` on a loop: run the event's
        callbacks, then record an unhandled failure.
        """
        ready = self._ready
        timers = self._timers
        clock = self._loop.time
        dispatched = 0
        self._draining = True
        try:
            while True:
                if ready:
                    event = ready.popleft()
                elif timers:
                    deadline, _seq, event = timers[0]
                    if event.callbacks is not None and deadline > clock():
                        break
                    _heappop(timers)
                else:
                    break
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # tombstone: a cancelled timeout
                event.callbacks = None
                dispatched += 1
                try:
                    for callback in callbacks:
                        callback(event)
                except Exception as exc:
                    self._loop.call_exception_handler(
                        {
                            "message": f"exception in a callback of {event!r}",
                            "exception": exc,
                        }
                    )
                    continue
                if not event._ok and not event._defused:
                    self._unhandled(event)
        finally:
            self._draining = False
            self.drains += 1
            self.events_dispatched += dispatched
            if ready and not self._wake_armed:
                # Only a BaseException (^C, SystemExit) leaves the
                # drain with events in hand; they are not stranded.
                self._arm_wake()
            if timers:
                # The head is live (the loop pops tombstones before it
                # stops) and the earliest deadline there is.  An alarm
                # already armed for an earlier one, since cancelled,
                # stays: it fires into an empty drain that re-arms.
                deadline = timers[0][0]
                handle = self._alarm_handle
                if handle is None or deadline < handle.when():
                    if handle is not None:
                        handle.cancel()
                    self._alarm_handle = self._loop.call_at(
                        deadline, self._alarm
                    )

    def _unhandled(self, event: Event) -> None:
        cause = event._value
        if not isinstance(cause, BaseException):
            cause = RuntimeError(repr(cause))
        self.failures.append(cause)
        self._loop.call_exception_handler(
            {
                "message": f"unhandled failure in {event!r}",
                "exception": cause,
            }
        )

    # -- asyncio bridges ---------------------------------------------------

    def as_future(self, event: Event) -> "asyncio.Future[_t.Any]":
        """An asyncio future completing when ``event`` is processed.

        The bridge for coroutine code driving kernel machinery: server
        mainloops await kernel events, socket readers trigger them.
        """
        future: "asyncio.Future[_t.Any]" = self._loop.create_future()

        def _complete(ev: Event) -> None:
            if future.cancelled():
                return
            if ev._ok:
                future.set_result(ev._value)
            else:
                ev._defused = True
                cause = ev._value
                if not isinstance(cause, BaseException):
                    cause = RuntimeError(repr(cause))
                future.set_exception(cause)

        if event.callbacks is None:
            # Already processed: complete on the next loop tick.
            self._loop.call_soon(_complete, event)
        else:
            event.callbacks.append(_complete)
        return future

    def event_from_future(
        self, future: "asyncio.Future[_t.Any]"
    ) -> Event:
        """A kernel event mirroring an asyncio future's completion."""
        event = Event(self)

        def _complete(fut: "asyncio.Future[_t.Any]") -> None:
            if event.triggered:
                return
            if fut.cancelled():
                event.fail(asyncio.CancelledError())
            elif fut.exception() is not None:
                event.fail(fut.exception())
            else:
                event.succeed(fut.result())

        future.add_done_callback(_complete)
        return event

    async def wait(self, event: Event) -> _t.Any:
        """Await a kernel event from coroutine code."""
        return await self.as_future(event)

    def kernel_stats(self) -> _t.Dict[str, float]:
        """The report shape (ctl ``stats`` -> ``kernel``, smoke report ->
        ``kernel_stats``): how many kernel events each loop tick served."""
        drains = self.drains
        events = self.events_dispatched
        return {
            "events": events,
            "drains": drains,
            "events_per_drain": events / drains if drains else 0.0,
        }

    def check_failures(self) -> None:
        """Raise the first recorded unhandled event failure, if any."""
        if self.failures:
            raise self.failures[0]
