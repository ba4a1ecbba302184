"""Scheduler and aggregate-client determinism at the cluster level.

Two identity contracts protect the golden digests:

- the calendar queue and the reference heap
  (``tests/sim/reference_heap.py``) dispatch in the identical total
  order, so a full workload's block trace is bit-for-bit the same on
  either.
- ``client_processes=N`` (one node per personality) collapses to the
  legacy layout byte-identically, and any ``P < N`` is deterministic
  under a fixed seed even though it is a legitimately different system.
"""

import contextlib

from repro.sim import CalendarQueue

from tests.golden import LEAN_CELL, blktrace_digest, run_cell
from tests.sim.reference_heap import HeapScheduler, heap_calendar


def _digest(heap=False, **config):
    with heap_calendar() if heap else contextlib.nullcontext():
        cluster = run_cell(
            "redbud-delayed", "xcdn-32K-lean", **LEAN_CELL, **config
        )
    # The swap must have taken, or this file compares a run with itself.
    expected = HeapScheduler if heap else CalendarQueue
    assert type(cluster.env._queue) is expected
    return blktrace_digest(cluster)


def test_calendar_and_heap_produce_identical_traces():
    assert _digest() == _digest(heap=True)


def test_aggregate_run_is_deterministic():
    """Same seed, same (N, P): identical trace."""
    a = _digest(client_processes=2)
    b = _digest(client_processes=2)
    assert a == b


def test_aggregate_with_p_equals_n_is_legacy_identical():
    """client_processes == num_clients takes the legacy path verbatim."""
    legacy = _digest()
    collapsed = _digest(client_processes=4)
    assert collapsed == legacy


def test_aggregation_diverges_but_both_schedulers_agree():
    """P < N is a different system (mux RNG draws), yet the trace is
    still scheduler-independent."""
    calendar = _digest(client_processes=2)
    heap = _digest(heap=True, client_processes=2)
    legacy = _digest()
    assert calendar == heap
    assert calendar != legacy
