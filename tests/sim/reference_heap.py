"""Reference calendar: one global binary heap over all pending entries.

The engine's :class:`repro.sim.engine.CalendarQueue` must pop in exactly
this order.  The differential tests run the same program twice, once
inside :func:`heap_calendar`, and diff the two runs.
"""

import contextlib
import heapq

import pytest

from repro.sim import engine

_INF = float("inf")


@contextlib.contextmanager
def heap_calendar():
    """Environments built inside the block run on :class:`HeapScheduler`.

    ``Environment.__init__`` looks ``CalendarQueue`` up in its module
    globals, so patching that one name swaps the calendar without the
    engine carrying a parameter for it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "CalendarQueue", HeapScheduler)
        yield


class HeapScheduler:
    """Same surface as ``CalendarQueue``: push/pop/peek_time/purge."""

    def __init__(self, start=0.0):
        self._heap = []

    def __len__(self):
        return len(self._heap)

    def push(self, entry):
        heapq.heappush(self._heap, entry)

    def pop(self):
        """Earliest entry, or ``None`` when empty (never raises)."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self):
        return self._heap[0][0] if self._heap else _INF

    def purge_cancelled(self):
        """Drop tombstoned entries (cancelled events); return the count."""
        keep = [e for e in self._heap if e[3].callbacks is not None]
        removed = len(self._heap) - len(keep)
        heapq.heapify(keep)
        self._heap = keep
        return removed
