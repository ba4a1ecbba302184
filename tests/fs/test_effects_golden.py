"""Pre-refactor golden digests: the effects boundary changed nothing.

The three digests below were recorded on the tree *before* the protocol
layer was ported from ``repro.sim`` to :class:`repro.core.effects`.
A fixed-seed workload through :class:`repro.sim.effects.SimEffects`
must still produce the byte-identical block trace: the kernel move
preserved class identity (``repro.sim.events.Event`` *is*
``repro.core.kernel.events.Event``), so any drift here means the
refactor altered scheduling order or RNG draws, not just module paths.
"""

import hashlib

import pytest

from repro.core.effects import Effects
from repro.fs.factory import build_cluster
from repro.storage.scheduler import ElevatorScheduler
from repro.workloads.filebench import FileserverWorkload
from repro.workloads.xcdn import XcdnWorkload

# sha256 over repr() of every blktrace row of the standard fixed-seed
# run (num_clients=4, seed=11, 32 KiB files, 6 seed files per client,
# duration 0.3 s after 0.05 s warmup), recorded pre-refactor.
GOLDEN = {
    "redbud-delayed": (
        "1db28146ca57e1254a67fbb9ca0b32421885f2e0bf3db879d35443e91afde53e"
    ),
    "redbud-delayed-shards2": (
        "12512764744b61ca1951520d0cb4c402ba8a9b4da62ab79b9c7808d44ec612a7"
    ),
    "redbud-original": (
        "ee37ff87736331481d6e2705e326d32f5843a367ec6985d8dee1bb0a924a9cea"
    ),
}


# The two paper cells ``perf/`` measures (7 clients, seed 11, warm-up
# 0.2 s + 2.0 s window), so the identity the benchmark harness enforces
# between commits -- same block trace, same number of scheduled events --
# is also enforced here: (system, personality, digest, scheduled_events).
PAPER_CELLS = {
    "sim-paper-delayed": (
        "redbud-delayed",
        lambda: XcdnWorkload(file_size=32 * 1024, seed_files_per_client=200),
        "55e898defe3f065c72aab3c59b7214a94d6e9b2510e80b27413ce55480af3e15",
        271888,
    ),
    "sim-paper-sync": (
        "redbud-original",
        lambda: FileserverWorkload(seed_files_per_client=100),
        "21e8c535d541b74dae49ea1c5918c7709c7f90a181286e95b667a112914de755",
        128309,
    ),
}


def _run(system, **kw):
    cluster = build_cluster(system, num_clients=4, seed=11, **kw)
    cluster.run_workload(
        XcdnWorkload(file_size=32 * 1024, seed_files_per_client=6),
        duration=0.3,
        warmup=0.05,
    )
    return cluster


def _digest(cluster):
    digest = hashlib.sha256()
    for row in cluster.blktrace.to_rows():
        digest.update(repr(row).encode())
    return digest.hexdigest()


def test_delayed_commit_trace_matches_pre_refactor_golden():
    cluster = _run("redbud-delayed")
    assert _digest(cluster) == GOLDEN["redbud-delayed"]
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
    array = _run("redbud-delayed").array
    assert array.ops_served > 100
    assert len(polls) <= 8 * array.ops_served


def test_sharded_delayed_trace_matches_pre_refactor_golden():
    cluster = _run("redbud-delayed", shards=2)
    assert _digest(cluster) == GOLDEN["redbud-delayed-shards2"]


def test_original_protocol_trace_matches_pre_refactor_golden():
    cluster = _run("redbud-original")
    assert _digest(cluster) == GOLDEN["redbud-original"]


@pytest.mark.parametrize("cell", PAPER_CELLS)
def test_paper_cell_trace_and_event_count(cell):
    system, personality, golden, scheduled_events = PAPER_CELLS[cell]
    cluster = build_cluster(system, num_clients=7, seed=11)
    cluster.run_workload(personality(), duration=2.0, warmup=0.2)
    assert _digest(cluster) == golden
    assert cluster.env.scheduled_events == scheduled_events


def test_sim_substrate_is_an_effects_subclass():
    from repro.sim import Environment
    from repro.sim.effects import SimEffects

    assert issubclass(SimEffects, Environment)
    assert issubclass(Environment, Effects)
    env = SimEffects()
    assert env.now == 0.0
