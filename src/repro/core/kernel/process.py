"""Generator-backed processes of the substrate-neutral kernel.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.core.kernel.events.Event`; the process
suspends until that event is processed, at which point the event's value
(or exception) is sent (or thrown) back into the generator.

Processes are themselves events -- they trigger when the generator returns
(success, with the generator's return value) or raises (failure).  This
lets one process ``yield`` another to join on it.

The trampoline only ever touches the environment through the
:class:`~repro.core.effects.Effects` contract (``schedule`` and the
``_active_process`` slot), so the identical class runs on the virtual
clock and on asyncio.

Interrupts
----------
:meth:`Process.interrupt` throws an :class:`Interrupt` into the generator
at its current suspension point.  This is how the adaptive commit-thread
pool retires surplus daemons (see :mod:`repro.core.thread_pool`).
"""

from __future__ import annotations

import typing as _t

from repro.core.kernel.events import (
    PENDING,
    PRIORITY_URGENT,
    Event,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> _t.Any:
        """The ``cause`` passed to :meth:`Process.interrupt`."""
        return self.args[0]


class _Initialize(Event):
    """Internal immediate event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Effects", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, priority=PRIORITY_URGENT)


class _Interruption(Event):
    """Internal immediate event that delivers an :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: _t.Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise RuntimeError(f"{process!r} has terminated; cannot interrupt")
        if process is process.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._deliver]
        self.env.schedule(self, priority=PRIORITY_URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            return  # Terminated between scheduling and delivery.
        # Unsubscribe the process from whatever it was waiting on, then
        # resume it with the failure (the Interrupt exception).
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        process._resume(self)


class Process(Event):
    """A running generator on the timeline.

    Parameters
    ----------
    env:
        Owning effects substrate.
    generator:
        A generator whose yields are events.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Effects",
        generator: _t.Generator[Event, _t.Any, _t.Any],
        name: _t.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently suspended on.
        self._target: _t.Optional[Event] = _Initialize(env, self)

    @property
    def target(self) -> _t.Optional[Event]:
        """The event the process is currently waiting on (or ``None``)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        exc_to_raise: _t.Optional[BaseException] = None
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed; mark it defused (we are handling it
                    # by throwing into the generator) and deliver.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                env._active_process = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                exc_to_raise = RuntimeError(
                    f"process {self.name!r} yielded a non-event: "
                    f"{next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc_to_raise
                continue

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: subscribe and stop.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break

            # Already processed: loop immediately with its outcome.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"
