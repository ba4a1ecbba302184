"""The effects boundary: the capability object protocol code runs on.

Every client, MDS, commit-queue and witness routine in this reproduction
is a generator that ``yield``\\ s events.  :class:`Effects` is the
*capability object* those generators receive instead of a concrete
simulator environment: it provides time (``now``, ``timeout``),
scheduling (``schedule``, ``process``), event construction (``event``,
``any_of``, ``all_of``) and the observability bundle (``obs``) every
protocol object reads once, at construction.

Two substrates implement the contract:

- ``repro.sim.SimEffects`` (the virtual-time calendar -- an alias of
  :class:`repro.sim.engine.Environment`, which overrides only
  ``timeout``, to recycle timers), and
- :class:`repro.rt.AsyncioEffects` (its own calendar, drained once per
  asyncio loop tick, and TCP sockets).

Substrate contract
------------------
A substrate must provide:

``now``
    Seconds since the substrate's epoch (virtual or monotonic-real).
``schedule(event, delay=0.0, priority=PRIORITY_NORMAL)``
    Arrange for ``event``'s callbacks to run ``delay`` seconds from now.
    The virtual substrate guarantees a deterministic total order over
    ``(time, priority, sequence)``; the real substrate dispatches
    zero-delay events in schedule order and timers in ``(deadline,
    sequence)`` order, never before their deadline, and ignores
    ``priority`` -- see DESIGN §16 for exactly what that means for
    determinism.
``_active_process``
    Writable slot the process trampoline uses to expose the currently
    resuming generator (``active_process`` reads it).
``obs``
    Writable, ``None`` until ``repro.obs.Instrumentation.attach`` sets
    it to the bundle.
``_note_cancelled()``
    Bookkeeping hook invoked by :meth:`Timeout.cancel`; the virtual
    substrate compacts tombstones, the real substrate ignores it (its
    calendar skips a tombstone when it pops one).

Everything else on this class is implemented once, in terms of that
contract, and inherited by both substrates.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernel.events import (
    PRIORITY_NORMAL,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.core.kernel.process import Process

__all__ = ["Effects"]


class Effects:
    """Capability object giving protocol code its effects.

    Instances are *substrates*: concrete subclasses supply the clock and
    scheduler (see the module docstring for the contract).  Protocol
    modules type-hint against this class and never import a substrate.
    """

    __slots__ = ()

    #: The process currently being resumed (written by the trampoline).
    #: Substrates that use ``__slots__`` shadow this with a real slot.
    _active_process: _t.Optional[Process] = None

    #: The shortest wait the substrate can make, in seconds: 0.0 on the
    #: virtual clock, the poller's timeout rounding on a real loop.
    #: Work shorter than this is not worth a timer of its own (the MDS
    #: inbox sizes its service groups from it).
    resolution: float = 0.0

    #: Observability bundle (``repro.obs.Instrumentation``) or None.
    #: ``Instrumentation.attach`` sets it; protocol objects copy it to
    #: their own ``obs`` in ``__init__``.  Substrates that use
    #: ``__slots__`` shadow this with a real slot.
    obs: _t.Optional[_t.Any] = None

    # -- substrate contract ------------------------------------------------

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or real)."""
        raise NotImplementedError

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Arrange for ``event`` to be processed ``delay`` from now."""
        raise NotImplementedError

    def _note_cancelled(self) -> None:
        """A scheduled entry was tombstoned (see ``Timeout.cancel``).

        Substrates whose calendar can bloat compact it; the default is
        a no-op (skipping a tombstone when it is popped is enough).
        """

    # -- event factories (implemented once, shared by substrates) ----------

    @property
    def active_process(self) -> _t.Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Returned handles support explicit ``.cancel()``; code that races
        a timeout against another event (RPC retry timers) must cancel
        the loser rather than rely on substrate-specific cleanup.
        """
        return Timeout(self, delay, value)

    def process(
        self,
        generator: _t.Generator[Event, _t.Any, _t.Any],
        name: _t.Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """An event that fires when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """An event that fires when any event in ``events`` has."""
        return AnyOf(self, events)
