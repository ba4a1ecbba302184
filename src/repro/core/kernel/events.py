"""Event primitives of the substrate-neutral protocol kernel.

An :class:`Event` is a one-shot future on *some* timeline -- virtual
(:class:`repro.sim.engine.Environment`) or real
(:class:`repro.rt.AsyncioEffects`).  It moves through three states:

1. *pending* -- created but not yet triggered; holds a callback list.
2. *triggered* -- given a value (or an exception) and handed to the
   substrate's scheduler; still holds its callbacks.
3. *processed* -- dispatched by the substrate; its callbacks have run and
   the callback list is discarded (set to ``None``).

Processes (see :mod:`repro.core.kernel.process`) suspend by yielding
events; the event's callback resumes the process generator when the event
is processed.

The only thing an event asks of its environment is the
:class:`~repro.core.effects.Effects` contract: ``schedule(event, delay,
priority)``, ``now``, and the ``_note_cancelled`` bookkeeping hook.  That
is what lets the identical classes run on either substrate.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.effects import Effects

#: Sentinel stored in ``Event._value`` while the event is untriggered.
PENDING = object()

#: Default scheduling priority band; lower fires first at equal times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence on the timeline.

    Events carry either a *value* (success) or an *exception* (failure).
    Other events and processes subscribe through :attr:`callbacks`.

    Parameters
    ----------
    env:
        The owning effects substrate.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Effects") -> None:
        self.env = env
        #: Callables invoked (with this event) when the event is processed.
        self.callbacks: _t.Optional[list] = []
        self._value: _t.Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is on the calendar."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def defused(self) -> bool:
        """``True`` if a failure was acknowledged by some handler."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    @property
    def value(self) -> _t.Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns ``self`` so triggering can be chained or yielded.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy state from another (triggered) event and schedule.

        Used as a callback to chain events together.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed time delay."""

    __slots__ = ("delay",)

    def __init__(
        self, env: "Effects", delay: float, value: _t.Any = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def cancel(self) -> None:
        """Withdraw a pending timeout: it will never fire.

        Lazy invalidation: the scheduled entry is tombstoned in place
        (callbacks dropped) rather than dug out of the scheduler; the
        dispatch loops skip it, and the virtual-time environment compacts
        the scheduler when tombstones pile up, so repeated
        cancel/reschedule churn (RPC retry timers, backoff) keeps the
        calendar bounded by the live event count.  On the asyncio
        substrate the underlying timer simply fires into a no-op.
        Cancelling an already-processed or already-cancelled timeout is a
        no-op.
        """
        if self.callbacks is None:
            return
        self.callbacks = None
        self.env._note_cancelled()

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of event -> value produced by a :class:`Condition`.

    Preserves the order the events were passed in, so
    ``list(cv.values())`` lines up with the original event list.
    """

    __slots__ = ("events",)

    def __init__(self, events: _t.List[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> _t.Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def keys(self) -> _t.Iterator[Event]:
        return iter(self.events)

    def values(self) -> _t.Iterator[_t.Any]:
        return (e._value for e in self.events)

    def items(self) -> _t.Iterator[_t.Tuple[Event, _t.Any]]:
        return ((e, e._value) for e in self.events)

    def todict(self) -> _t.Dict[Event, _t.Any]:
        return dict(self.items())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e!r}: {e._value!r}" for e in self.events)
        return f"<ConditionValue {{{pairs}}}>"


class Condition(Event):
    """An event that triggers when a boolean combination of events holds.

    ``evaluate`` receives ``(events, num_triggered)`` and returns ``True``
    when the condition is satisfied.  On success the condition's value is a
    :class:`ConditionValue` of all *triggered* constituent events.

    A failure of any constituent immediately fails the condition (and the
    constituent is marked defused, since the condition took ownership).
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Effects",
        evaluate: _t.Callable[[_t.List[Event], int], bool],
        events: _t.Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        # Immediately-true condition (e.g. AllOf([])).
        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach_unfired()
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            done = [e for e in self._events if e.processed]
            self.succeed(ConditionValue(done))
            self._detach_unfired()

    def _detach_unfired(self) -> None:
        """Unsubscribe from constituents that will no longer matter.

        Once the condition has triggered, its ``_check`` callback on the
        still-unfired constituents is dead weight.  An orphaned timeout
        (the ``any_of([reply, timeout])`` RPC pattern, where the reply
        wins) stays on its calendar and fires into nothing unless its
        owner cancels it, as the rpc retry loop does.
        """
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is None:
                continue
            try:
                callbacks.remove(self._check)
            except ValueError:
                pass

    @staticmethod
    def all_events(events: _t.List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: _t.List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition satisfied when *all* of ``events`` have succeeded."""

    def __init__(self, env: "Effects", events: _t.Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition satisfied when *any* of ``events`` has succeeded."""

    def __init__(self, env: "Effects", events: _t.Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
