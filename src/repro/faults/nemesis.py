"""The tracked nemesis: long-horizon fault planning for soak runs.

``repro check`` explores *short* schedules -- one or two clauses, a few
hundred virtual milliseconds.  The soak harness (ROADMAP 4b) instead
wants sustained churn over virtual *hours*: faults continuously
injected and healed, with the oracle always able to ask which faults
were live (the YDB nemesis discipline -- track what you break so you
know which violations are excusable).

:class:`TrackedNemesis` walks the virtual-time horizon in order,
drawing inject/heal action pairs from every fault family the
mini-language knows (loss/delay bursts, client partitions, shard
partitions, MDS restarts, client deaths).  Each
action is rendered as a canonical clause string, so the whole plan is
one parseable :class:`~repro.faults.spec.FaultSpec` -- which buys:

- execution through the battle-tested :class:`FaultInjector` (whose
  timed processes register every action in the shared
  :class:`~repro.faults.tracking.FaultTracker` as it arms and heals);
- replay (``repro run --faults '<plan>'``) and ddmin shrinking of any
  failing window, because clause subsets of a valid plan stay valid.

Planning is a pure function of the RNG stream: same seed, same plan.
Per-scope gating keeps the plan well-formed -- no two actions on the
same scope overlap, and each scope stays quiet for a convergence
grace period after a heal so the liveness probes measure the system,
not the next fault.  Client deaths never take out a majority.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.faults.tracking import Scope

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.util.rng import StreamRNG

__all__ = ["NemesisAction", "TrackedNemesis"]

#: Mean virtual seconds between actions at ``intensity=1``.
BASE_GAP = 30.0
#: Quiet margin a scope keeps after a heal: the convergence bound the
#: liveness probes use, plus slack so the probe itself lands before the
#: scope's next fault.
CONVERGENCE_GRACE = 10.0
SCOPE_SLACK = 2.0
#: The plan leaves the end of the horizon fault-free so the final
#: convergence judgement is never racing a live fault.
TAIL_MARGIN = 30.0


@dataclass(frozen=True)
class NemesisAction:
    """One planned inject/heal pair, rendered as a replayable clause."""

    kind: str
    clause: str
    scope: Scope
    start: float
    #: When the fault heals (partition lift, burst end, MDS back up).
    #: For client deaths -- which never "heal" at the
    #: protocol level -- this is the reclamation bound: the instant by
    #: which lease GC has fenced and reclaimed the corpse, after which
    #: the death stops excusing violations.
    end: float

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "kind": self.kind,
            "clause": self.clause,
            "scope": list(self.scope),
            "start": self.start,
            "end": self.end,
        }


class TrackedNemesis:
    """Deterministically sample a fault plan over a long virtual horizon.

    Parameters
    ----------
    rng:
        A dedicated :class:`StreamRNG` stream; the plan consumes it in
        one deterministic pass.
    horizon:
        Virtual seconds of soak.
    num_clients, shards:
        Cluster shape -- gates which families are drawn (shard
        partitions need ``shards > 1``), mirroring the explorer's
        family gating so arming one axis never perturbs another's
        draws.
    intensity:
        Scales the action rate: mean gap is ``BASE_GAP / intensity``.
    start_at:
        First instant a fault may land (leave workload setup alone).
    death_recovery:
        Reclamation bound for client deaths (lease duration + GC scan
        cadence + margin), supplied by the harness that knows the
        cluster's lease parameters.
    """

    def __init__(
        self,
        rng: "StreamRNG",
        horizon: float,
        num_clients: int,
        *,
        shards: int = 1,
        intensity: float = 1.0,
        start_at: float = 1.0,
        death_recovery: float = 0.5,
    ) -> None:
        if horizon <= start_at + TAIL_MARGIN:
            raise ValueError(
                f"horizon {horizon} too short for a soak (needs > "
                f"{start_at + TAIL_MARGIN} virtual seconds)"
            )
        if intensity <= 0:
            raise ValueError(f"intensity must be positive: {intensity}")
        self.rng = rng
        self.horizon = horizon
        self.num_clients = num_clients
        self.shards = shards
        self.intensity = intensity
        self.start_at = start_at
        self.death_recovery = death_recovery

    # -- the plan ---------------------------------------------------------

    def sample(self) -> _t.List[NemesisAction]:
        """Walk the horizon once and return the chronological plan."""
        rng = self.rng
        actions: _t.List[NemesisAction] = []
        busy: _t.Dict[_t.Tuple[_t.Any, ...], float] = {}
        dead: _t.Set[int] = set()
        # Majority of clients must stay alive for progress detection to
        # stay meaningful (and the check workload to keep churning).
        max_deaths = max(0, (self.num_clients - 1) // 2)

        families = ["loss_burst", "delay_burst", "partition", "mds_restart"]
        weights = [3.0, 3.0, 3.0, 2.0]
        if self.shards > 1:
            families.append("shard_partition")
            weights.append(2.0)
        families.append("client_death")
        weights.append(1.0)

        deadline = self.horizon - TAIL_MARGIN
        t = self.start_at
        while True:
            t += rng.exponential(BASE_GAP / self.intensity)
            if t >= deadline:
                break
            family = rng.weighted_choice(families, weights)
            action = self._draw(family, round(t, 4), rng, busy, dead,
                                deadline)
            if action is not None:
                actions.append(action)
        return actions

    def clauses(self) -> _t.List[str]:
        return [action.clause for action in self.sample()]

    # -- per-family draws -------------------------------------------------

    def _draw(
        self,
        family: str,
        t0: float,
        rng: "StreamRNG",
        busy: _t.Dict[_t.Tuple[_t.Any, ...], float],
        dead: _t.Set[int],
        deadline: float,
    ) -> _t.Optional[NemesisAction]:
        """One action, or None when the slot is gated off.

        Every family draws its parameters *before* gating, so a skipped
        slot consumes the same draws as an emitted one -- adding a gate
        never perturbs the rest of the plan.
        """

        def emit(
            kind: str,
            clause: str,
            scope: Scope,
            key: _t.Tuple[_t.Any, ...],
            end: float,
        ) -> _t.Optional[NemesisAction]:
            if busy.get(key, 0.0) > t0 or end > deadline:
                return None
            busy[key] = end + CONVERGENCE_GRACE + SCOPE_SLACK
            return NemesisAction(
                kind=kind, clause=clause, scope=scope, start=t0, end=end
            )

        if family == "loss_burst":
            prob = round(rng.uniform(0.05, 0.3), 3)
            t1 = round(t0 + rng.uniform(1.0, 4.0), 4)
            return emit(
                "loss_burst", f"loss={prob!r}@{t0!r}-{t1!r}",
                ("net", "*"), ("loss_burst",), t1,
            )
        if family == "delay_burst":
            prob = round(rng.uniform(0.1, 0.4), 3)
            max_delay = round(rng.uniform(0.002, 0.02), 4)
            t1 = round(t0 + rng.uniform(1.0, 4.0), 4)
            return emit(
                "delay_burst",
                f"delay={prob!r}:{max_delay!r}@{t0!r}-{t1!r}",
                ("net", "*"), ("delay_burst",), t1,
            )
        if family == "partition":
            cid = rng.integers(0, self.num_clients)
            t1 = round(t0 + rng.uniform(2.0, 6.0), 4)
            if cid in dead:
                return None  # Partitioning a corpse proves nothing.
            return emit(
                "partition", f"partition={cid}@{t0!r}-{t1!r}",
                ("client", cid), ("partition", cid), t1,
            )
        if family == "mds_restart":
            down = round(rng.uniform(0.3, 1.0), 4)
            if self.shards > 1:
                sid = rng.integers(0, self.shards)
                return emit(
                    "mds_restart",
                    f"mds_restart@{t0!r}:{down!r}:shard={sid}",
                    ("shard", sid), ("mds", sid), round(t0 + down, 4),
                )
            return emit(
                "mds_restart", f"mds_restart@{t0!r}:{down!r}",
                ("mds", "*"), ("mds", "*"), round(t0 + down, 4),
            )
        if family == "shard_partition":
            sid = rng.integers(0, self.shards)
            t1 = round(t0 + rng.uniform(1.0, 4.0), 4)
            return emit(
                "shard_partition", f"shard_partition={sid}@{t0!r}-{t1!r}",
                ("shard", sid), ("shard_partition", sid), t1,
            )
        if family == "client_death":
            cid = rng.integers(0, self.num_clients)
            if cid in dead or len(dead) >= max(
                0, (self.num_clients - 1) // 2
            ):
                return None
            action = emit(
                "client_death", f"client_death={cid}@{t0!r}",
                ("client", cid), ("partition", cid),
                round(t0 + self.death_recovery, 4),
            )
            if action is not None:
                dead.add(cid)
                # The corpse's scope stays busy forever: no point
                # partitioning it later.
                busy[("partition", cid)] = float("inf")
            return action
        raise AssertionError(f"unknown family {family!r}")
