"""Shared-resource primitives built on the kernel events.

These are the coordination structures the file-system protocol is written
against:

- :class:`Resource` -- counted semaphore (the MDS's metadata lock).
- :class:`Store` -- FIFO buffer of items (the RPC server inbox, which
  overrides ``_store_item`` / ``_take_item`` to serve message groups).

Both follow the SimPy idiom: operations return events that a process
``yield``\\ s; a request event used as a context manager auto-releases.
Like the rest of the kernel they only touch the environment through the
:class:`~repro.core.effects.Effects` contract, so they behave identically
on the virtual clock and on asyncio.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.core.kernel.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


# ---------------------------------------------------------------------------
# Resource (counted semaphore)
# ---------------------------------------------------------------------------


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    A request made while a slot is free is granted on the spot and is
    already processed when :meth:`Resource.request` returns; one that
    has to queue is granted through the calendar, in FIFO order, when a
    slot comes back.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        # Release if held; withdraw if still queued (the owning process
        # may be torn down while waiting, e.g. at simulation shutdown).
        if self in self.resource.users:
            self.resource.release(self)
        elif self in self.resource.queue:
            self.resource.queue.remove(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A shared resource with ``capacity`` identical slots.

    Usage::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    def __init__(self, env: "Effects", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: _t.List[Request] = []
        # A deque, not a list: the MDS daemon pool queues thousands of
        # waiters at 10k-client scale and every grant used to pop(0).
        self.queue: _t.Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        """Grow or shrink capacity; grants queued requests on growth."""
        if value <= 0:
            raise ValueError(f"capacity must be positive, got {value}")
        self._capacity = value
        self._grant()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot held by ``request``."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(f"{request!r} does not hold {self!r}") from None
        self._grant()

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            # Uncontended: granted in place.  The request is born
            # processed, so the requester's ``yield`` goes straight on
            # and no calendar entry is made for a wait nobody has.
            self.users.append(request)
            request._value = None
            request.callbacks = None
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        if request.triggered:
            raise RuntimeError("cannot cancel a granted request; release it")
        self.queue.remove(request)

    def _grant(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()

    def __repr__(self) -> str:
        return (
            f"<Resource capacity={self._capacity} used={len(self.users)} "
            f"queued={len(self.queue)}>"
        )


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class StorePut(Event):
    """A (possibly waiting) put of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: _t.Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._puts.append(self)
        store._dispatch()


class StoreGet(Event):
    """A (possibly waiting) get from a store."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._gets.append(self)
        store._dispatch()


class Store:
    """FIFO buffer of Python objects with optional capacity.

    ``put(item)`` and ``get()`` return events.  Gets are granted in FIFO
    order; puts block while the buffer is full.
    """

    def __init__(
        self, env: "Effects", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Buffered items; a deque, so each get under fan-in is O(1).
        self.items: _t.Deque[_t.Any] = deque()
        self._puts: _t.Deque[StorePut] = deque()
        self._gets: _t.Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: _t.Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def drain(self) -> _t.List[_t.Any]:
        """Remove and return every buffered item (crash modelling).

        Queued puts are admitted first (their items are "in the buffer"
        from the sender's point of view) so the returned list is the
        complete set of items lost with the store's owner.
        """
        while self._puts:
            put = self._puts.popleft()
            self._store_item(put.item)
            put.succeed()
        items = list(self.items)
        self.items.clear()
        return items

    def cancel_gets(self) -> int:
        """Abandon every waiting get; their events never fire.

        Needed when the consumers of this store are torn down (an MDS
        crash interrupts its daemon processes): an interrupted process
        leaves its ``StoreGet`` behind, and a later ``put`` would succeed
        that orphaned get -- silently black-holing the item.  Returns the
        number of gets cancelled.
        """
        cancelled = len(self._gets)
        self._gets.clear()
        return cancelled

    # -- internals ---------------------------------------------------------

    def _store_item(self, item: _t.Any) -> None:
        self.items.append(item)

    def _take_item(self, get_event: StoreGet) -> _t.Optional[_t.Any]:
        """Return an item for ``get_event`` or None if none available.

        Stores never buffer ``None``: it is reserved as the no-item signal.
        """
        if self.items:
            return self.items.popleft()
        return None

    def _dispatch(self) -> None:
        """Match queued puts and gets until no more progress is possible.

        Alternates an admit-puts pass with a serve-gets pass, exactly as
        many times as the old rebuild-``remaining`` loop did useful work:
        a further round can only make progress if the gets pass freed
        buffer room *and* a put is still waiting to use it, so the loop
        exits as soon as that cannot hold.  Within a pass, puts are
        admitted and gets served in FIFO order -- the succeed() sequence
        (and therefore the event calendar) is bit-for-bit identical to
        the previous implementation, which the determinism tests gate.
        """
        puts = self._puts
        items = self.items
        capacity = self.capacity
        while True:
            while puts and len(items) < capacity:
                put = puts.popleft()
                self._store_item(put.item)
                put.succeed()
            if not self._serve_gets():
                return
            if not puts or len(items) >= capacity:
                return

    def _serve_gets(self) -> bool:
        """Serve waiting gets in FIFO order; True if any was served.

        An unsatisfiable get at the head means every get behind it is
        unsatisfiable too (``_take_item`` ignores the get), so the pass
        stops at the first failure instead of probing each of the ``m``
        waiters -- the old quadratic fan-in cost.
        """
        gets = self._gets
        served = False
        while gets:
            get = gets[0]
            item = self._take_item(get)
            if item is None:
                break
            gets.popleft()
            get.succeed(item)
            served = True
        return served
