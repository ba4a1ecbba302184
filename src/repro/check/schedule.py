"""Schedules as lists of fault-clause atoms.

A *schedule* is one fault scenario the checker runs: network loss, delay,
partition windows, MDS restarts, client deaths, and at most one
whole-cluster crash cut.  Rather than inventing a new representation,
the checker reuses :class:`repro.faults.spec.FaultSpec` and treats its
serialized clause strings as the atoms -- so every schedule, including a
shrunken counterexample, is directly replayable with ``repro run
--faults '<spec>'``.
"""

from __future__ import annotations

import typing as _t

from repro.faults.spec import FaultSpec

__all__ = ["schedule_events", "compose", "describe", "replay_command"]


def schedule_events(spec: FaultSpec) -> _t.List[str]:
    """Decompose a spec into its independent clause atoms."""
    return [str(c) for c in spec.clauses()]


def compose(clauses: _t.Iterable[str]) -> FaultSpec:
    """Reassemble clause atoms into a runnable spec."""
    return FaultSpec.parse(",".join(clauses))


def describe(spec: FaultSpec) -> str:
    """Human-oriented one-liner for a schedule ('' for fault-free)."""
    text = spec.serialize()
    return text if text else "(fault-free)"


def replay_command(
    faults: str,
    *,
    seed: int,
    clients: int,
    shards: int = 1,
    witness_capacity: int = 0,
    workload: _t.Optional[str] = None,
    duration: _t.Optional[float] = None,
    seed_bug: str = "none",
) -> str:
    """The ``repro run --check`` line that replays a counterexample."""
    words = [
        "python -m repro run",
        f"--workload {workload}" if workload is not None else "",
        f"--faults '{faults}' --check --seed {seed} --clients {clients}",
        f"--duration {duration:.1f}" if duration is not None else "",
        f"--shards {shards}" if shards > 1 else "",
        f"--witness-capacity {witness_capacity}" if witness_capacity else "",
        f"--seed-bug {seed_bug}" if seed_bug != "none" else "",
    ]
    return " ".join(word for word in words if word)
