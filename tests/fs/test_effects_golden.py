"""Pre-refactor golden digests: the effects boundary changed nothing.

``EFFECTS_GOLDEN`` (``tests/golden.py``) was recorded on the tree
*before* the protocol layer was ported from the simulator to
:class:`repro.core.effects`.  A fixed-seed workload through the
virtual-time substrate must still produce the byte-identical block
trace: any drift here means a refactor altered scheduling order or RNG
draws, not just module paths.
"""

import pytest

from repro.core.effects import Effects
from repro.storage.scheduler import ElevatorScheduler

from tests.golden import (
    EFFECTS_GOLDEN,
    LEAN_CELL,
    PAPER_CELL,
    PAPER_CELLS,
    blktrace_digest,
    run_cell,
    trace_digest,
)


def test_delayed_commit_trace_matches_pre_refactor_golden():
    cluster = run_cell("redbud-delayed", "xcdn-32K-lean", **LEAN_CELL)
    assert blktrace_digest(cluster) == EFFECTS_GOLDEN["redbud-delayed"]
    # The cluster runs on the effects interface, not on a sim-only API.
    assert isinstance(cluster.env, Effects)


def test_array_polls_stay_proportional_to_dispatches(monkeypatch):
    """Herd guard: before the array dispatched on change, every
    submission made sixteen spindles poll every client queue: 232 polls
    per request served on this cell, 2.2 now."""
    polls = []
    pop = ElevatorScheduler.pop_next_for_spindle

    def counted(self, *args, **kw):
        polls.append(1)
        return pop(self, *args, **kw)

    monkeypatch.setattr(ElevatorScheduler, "pop_next_for_spindle", counted)
    array = run_cell("redbud-delayed", "xcdn-32K-lean", **LEAN_CELL).array
    assert array.ops_served > 100
    assert len(polls) <= 8 * array.ops_served


def test_sharded_delayed_trace_matches_pre_refactor_golden():
    digest = trace_digest(
        "redbud-delayed", "xcdn-32K-lean", **LEAN_CELL, shards=2
    )
    assert digest == EFFECTS_GOLDEN["redbud-delayed-shards2"]


def test_original_protocol_trace_matches_pre_refactor_golden():
    digest = trace_digest("redbud-original", "xcdn-32K-lean", **LEAN_CELL)
    assert digest == EFFECTS_GOLDEN["redbud-original"]


@pytest.mark.parametrize("cell", PAPER_CELLS)
def test_paper_cell_trace_and_event_count(cell):
    system, workload, golden, scheduled_events = PAPER_CELLS[cell]
    cluster = run_cell(system, workload, **PAPER_CELL)
    assert blktrace_digest(cluster) == golden
    assert cluster.env.scheduled_events == scheduled_events


def test_sim_substrate_is_an_effects_subclass():
    from repro.sim import Environment, SimEffects

    assert issubclass(SimEffects, Environment)
    assert issubclass(Environment, Effects)
    env = SimEffects()
    assert env.now == 0.0
