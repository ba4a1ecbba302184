"""Deterministic, seeded fault injection for the simulator.

The package has two halves:

- :mod:`repro.faults.spec` -- :class:`FaultSpec`, a declarative fault
  schedule parsed from the ``--faults`` CLI string (message loss and
  delay probabilities, partition windows, timed MDS restarts and client
  deaths).
- :mod:`repro.faults.injector` -- :class:`FaultInjector`, which arms a
  built cluster with a spec: per-link fault models drawing from named
  RNG streams (same seed + same spec => identical fault sequence), plus
  scheduled processes firing the timed faults.
- :mod:`repro.faults.tracking` -- :class:`FaultTracker`, the live
  registry of active faults (id, kind, scope, start, heal) shared by
  the SLO timeline and the soak oracles.
- :mod:`repro.faults.nemesis` -- :class:`TrackedNemesis`, the
  long-horizon fault planner behind ``repro soak``.

The protocol machinery that survives the injected faults lives where the
protocols live: RPC timeout/retry in :mod:`repro.net.rpc`, duplicate
suppression in :mod:`repro.mds.server`, lease-based reclamation in
:mod:`repro.mds.lease_gc`, and delayed->synchronous degradation in
:mod:`repro.client.client`.
"""

from repro.faults.injector import FaultInjector, LinkFaults
from repro.faults.nemesis import NemesisAction, TrackedNemesis
from repro.faults.spec import (
    ClientDeath,
    DelayBurst,
    FaultSpec,
    LossBurst,
    MdsRestart,
    Partition,
    ShardPartition,
)
from repro.faults.tracking import (
    FaultRecord,
    FaultTracker,
    Scope,
    scopes_overlap,
)

__all__ = [
    "ClientDeath",
    "DelayBurst",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "FaultTracker",
    "LinkFaults",
    "LossBurst",
    "MdsRestart",
    "NemesisAction",
    "Partition",
    "Scope",
    "ShardPartition",
    "TrackedNemesis",
    "scopes_overlap",
]
