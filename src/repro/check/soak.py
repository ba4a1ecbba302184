"""Long-horizon soak runs: continuous oracles under a tracked nemesis.

``repro check`` judges *short* schedules after they settle; the soak
harness (ROADMAP 4b) keeps one cluster alive for virtual hours while a
:class:`~repro.faults.nemesis.TrackedNemesis` plan continuously injects
and heals faults, and evaluates oracles *while the run is going*:

- periodic :func:`~repro.check.oracle.judge_live` sweeps (safety
  invariants must hold mid-churn, not just at quiescence);
- **liveness probes**: after each fault heals, the system must
  re-converge within :data:`~repro.faults.nemesis.CONVERGENCE_GRACE`
  virtual seconds -- delayed->sync degradation reverts, commit queues
  drain below the degradation threshold, lease GC resumes after an MDS
  restart, and the CURP witness backlog (when witnesses are armed)
  stays below capacity;
- a **stuck-progress detector**: a window in which the MDS processed
  no request while no fault was live is a liveness violation.

Violations are checked against the live fault registry (the
:class:`~repro.faults.tracking.FaultTracker` the injector maintains):
anything overlapping a live fault's blast radius -- or a fault that
healed within the convergence grace -- is *excused-and-tagged* in the
report rather than failing the run.  Unexcused violations fail the
soak, and the fault window around the first one is rebased to the
short-horizon check harness and handed to ddmin, yielding a minimal
schedule replayable with ``repro run --workload soak --faults
'<minimal>' --check``.

Everything is virtual-time deterministic: same seed and parameters,
byte-identical JSONL reports.  Soaks run untraced (``obs=None``) so
memory stays bounded over tens of virtual hours.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.check.explorer import (
    GC_SCAN_INTERVAL,
    LEASE_DURATION,
    SETTLE_GRACE,
    check_config,
    run_schedule,
)
from repro.check.oracle import Verdict, judge_live
from repro.check.schedule import compose, replay_command, schedule_events
from repro.check.shrinker import ddmin
from repro.check.workload import CheckWorkload
from repro.faults.nemesis import (
    CONVERGENCE_GRACE,
    NemesisAction,
    TrackedNemesis,
)
from repro.faults.spec import FaultSpec, MdsRestart, Partition
from repro.faults.tracking import CLUSTER_WIDE, FaultTracker
from repro.fs.factory import build_cluster
from repro.fs.redbud import RedbudCluster
from repro.util.rng import StreamRNG

__all__ = [
    "SoakReport",
    "SoakViolation",
    "SoakWorkload",
    "judge_converged",
    "probe_client_converged",
    "probe_mds_converged",
    "probe_witness_converged",
    "run_soak",
]

HOUR = 3600.0
#: Stuck-progress detection window.
PROGRESS_WINDOW = 30.0
#: judge_live sweeps per soak (floored at one sweep per minute).
DEFAULT_SWEEPS = 24
#: Fault window handed to the shrinker around an unexcused violation.
SHRINK_LOOKBACK = 60.0
#: Client-death reclamation bound: lease expiry + a few GC scans.
DEATH_RECOVERY = LEASE_DURATION + 4 * GC_SCAN_INTERVAL + 0.25


class SoakWorkload(CheckWorkload):
    """The check mix at a slow trickle, sized for virtual hours.

    Same transition coverage as :class:`CheckWorkload` (appends,
    rewrites, fsyncs, create/unlink churn) but paced about one op per
    client-second so a 24-virtual-hour soak stays a few minutes of wall
    clock, with the scratch-file population capped so the namespace and
    volume stay bounded over the horizon.  A shrunk soak counterexample
    replays under ``repro run --workload soak`` with the same timing it
    failed with under the soak: both drivers loop the same bare ``op``.
    """

    name = "soak"
    threads_per_client = 1
    think_time = 0.8
    mix = (0.40, 0.70, 0.82, 0.91)
    scratch_cap = 8


# -- convergence probes ----------------------------------------------------
#
# Each probe inspects one healed-fault family's "did the system come
# back?" condition and returns ``(kind, detail)`` violations.  They are
# plain functions so the heal-path tests exercise them directly.

def probe_client_converged(
    cluster: RedbudCluster, client_id: int
) -> _t.List[_t.Tuple[str, str]]:
    """Delayed->sync degradation reverted and the backlog drained."""
    client = cluster.clients[client_id]
    if getattr(client, "crashed", False):
        return []
    out = []
    if getattr(client, "degraded", False):
        out.append(
            (
                "liveness-degrade-stuck",
                f"client {client_id} still in sync fallback "
                f"(transitions={client.degrade_transitions})",
            )
        )
    backlog = (
        len(client.commit_queue) if client.commit_queue is not None else 0
    )
    threshold = getattr(client, "degrade_backlog", 0) // 2
    if threshold and backlog > threshold:
        out.append(
            (
                "liveness-commit-backlog",
                f"client {client_id} commit queue holds {backlog} "
                f"records (> drain threshold {threshold})",
            )
        )
    return out


def probe_mds_converged(
    cluster: RedbudCluster, shard: _t.Optional[int] = None
) -> _t.List[_t.Tuple[str, str]]:
    """MDS back up and its lease GC resumed after a restart."""
    servers = (
        list(cluster.metadata)
        if shard is None
        else [cluster.metadata.shard(shard)]
    )
    out = []
    for index, server in enumerate(servers):
        label = shard if shard is not None else index
        if server.down:
            out.append(
                ("liveness-mds-down", f"metadata shard {label} still down")
            )
        elif server.gc is not None and server.gc.paused:
            out.append(
                (
                    "liveness-gc-paused",
                    f"lease GC on shard {label} did not resume",
                )
            )
    return out


def probe_witness_converged(
    cluster: RedbudCluster,
) -> _t.List[_t.Tuple[str, str]]:
    """CURP witness backlog syncing (not saturated at capacity)."""
    witnesses = getattr(cluster, "witnesses", None)
    if witnesses is None:
        return []
    if len(witnesses) >= witnesses.capacity:
        return [
            (
                "liveness-witness-backlog",
                f"{len(witnesses)} unsynced witnessed ops at capacity "
                f"{witnesses.capacity}",
            )
        ]
    return []


def judge_converged(cluster: RedbudCluster) -> Verdict:
    """Final liveness judgement on a settled cluster.

    After a schedule's faults stop and the system drains, every alive
    client must be back on the delayed path with its backlog drained,
    every MDS up with lease GC running, and the witness backlog below
    capacity.  The ``converge-*`` kinds mirror the mid-soak probe kinds
    so a shrunk replay fails the same way the soak did.
    """
    verdict = Verdict()
    degraded = 0
    for client_id in range(len(cluster.clients)):
        for kind, detail in probe_client_converged(cluster, client_id):
            verdict.add(kind.replace("liveness-", "converge-"), detail)
            if "degrade" in kind:
                degraded += 1
    for kind, detail in probe_mds_converged(cluster):
        verdict.add(kind.replace("liveness-", "converge-"), detail)
    for kind, detail in probe_witness_converged(cluster):
        verdict.add(kind.replace("liveness-", "converge-"), detail)
    alive = sum(
        1 for c in cluster.clients if not getattr(c, "crashed", False)
    )
    verdict.summaries.append(
        f"converged: {alive}/{len(cluster.clients)} clients alive, "
        f"{degraded} stuck degraded"
    )
    return verdict


# -- the report ------------------------------------------------------------

@dataclass
class SoakViolation:
    """One oracle finding, tagged with its excusal status."""

    time: float
    source: str  # "oracle" | "liveness" | "progress" | "final"
    kind: str
    detail: str
    excused: bool
    excused_by: _t.List[int] = field(default_factory=list)

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "t": self.time,
            "source": self.source,
            "kind": self.kind,
            "detail": self.detail,
            "excused": self.excused,
            "excused_by": list(self.excused_by),
        }


@dataclass
class SoakReport:
    """One soak run, JSON-ready and wall-clock free."""

    seed: int
    hours: float
    intensity: float
    clients: int
    mode: str
    shards: int
    witness_capacity: int
    seed_bug: str = "none"
    actions: _t.List[_t.Dict[str, _t.Any]] = field(default_factory=list)
    violations: _t.List[SoakViolation] = field(default_factory=list)
    sweeps_run: int = 0
    faults_injected: _t.Dict[str, int] = field(default_factory=dict)
    counterexample: _t.Optional[_t.Dict[str, _t.Any]] = None

    @property
    def unexcused(self) -> int:
        return sum(1 for v in self.violations if not v.excused)

    @property
    def excused(self) -> int:
        return sum(1 for v in self.violations if v.excused)

    @property
    def ok(self) -> bool:
        return self.unexcused == 0

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "seed": self.seed,
            "hours": self.hours,
            "intensity": self.intensity,
            "clients": self.clients,
            "mode": self.mode,
            "shards": self.shards,
            "witness_capacity": self.witness_capacity,
            "seed_bug": self.seed_bug,
            "actions": len(self.actions),
            "sweeps": self.sweeps_run,
            "violations": [v.as_dict() for v in self.violations],
            "excused": self.excused,
            "unexcused": self.unexcused,
            "ok": self.ok,
            "faults_injected": dict(self.faults_injected),
            "counterexample": self.counterexample,
        }

    def summary(self) -> str:
        return (
            f"soak: {self.hours:g}h virtual, {len(self.actions)} nemesis "
            f"actions, {self.sweeps_run} sweeps, {self.excused} excused / "
            f"{self.unexcused} unexcused violation(s)"
        )


# -- the run ---------------------------------------------------------------

def run_soak(
    hours: float,
    seed: int = 0,
    *,
    intensity: float = 1.0,
    clients: int = 4,
    mode: str = "delayed",
    shards: int = 1,
    witness_capacity: int = 0,
    seed_bug: str = "none",
    sweeps: int = DEFAULT_SWEEPS,
    shrink: bool = True,
    emit: _t.Optional[_t.Callable[[_t.Dict[str, _t.Any]], None]] = None,
) -> SoakReport:
    """Run one soak and return the judged report.

    ``emit``, when given, receives each timeline entry (inject, heal,
    violation, sweep, summary) as a JSON-ready dict the moment it is
    produced -- the incremental JSONL feed behind ``repro soak --out``.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive: {hours}")
    horizon = hours * HOUR
    report = SoakReport(
        seed=seed, hours=hours, intensity=intensity, clients=clients,
        mode=mode, shards=shards, witness_capacity=witness_capacity,
        seed_bug=seed_bug,
    )
    out = emit if emit is not None else (lambda payload: None)

    nemesis = TrackedNemesis(
        StreamRNG(seed).stream("soak", "nemesis"),
        horizon,
        clients,
        shards=shards,
        intensity=intensity,
        death_recovery=DEATH_RECOVERY,
    )
    actions = nemesis.sample()
    report.actions = [a.as_dict() for a in actions]
    # Untraced on purpose: a tracer over tens of virtual hours would
    # hold millions of events; the FaultTracker carries the excusal
    # state the oracles need without a trace.
    cluster = build_cluster(
        check_config(clients, mode, shards, witness_capacity),
        seed=seed, faults=FaultSpec.of(a.fault for a in actions),
        seed_bug=seed_bug,
    )
    injector = cluster.injector
    tracker = injector.tracker if injector is not None else FaultTracker()

    env = cluster.env
    run = cluster.start_workload(SoakWorkload())
    env.run(until=env.all_of(run.setups))
    start = env.now
    end_time = start + horizon

    def record(
        source: str,
        kind: str,
        detail: str,
        lo: float,
        hi: float,
        grace: float,
        exclude_id: _t.Optional[int] = None,
    ) -> None:
        excusers = [
            r
            for r in tracker.excusers(CLUSTER_WIDE, lo, hi, grace=grace)
            if r.fault_id != exclude_id
        ]
        violation = SoakViolation(
            time=round(env.now, 6),
            source=source,
            kind=kind,
            detail=detail,
            excused=bool(excusers),
            excused_by=[r.fault_id for r in excusers],
        )
        report.violations.append(violation)
        out({"event": "violation", **violation.as_dict()})

    def find_record(action: NemesisAction) -> _t.Optional[_t.Any]:
        for r in tracker.records:
            if (
                r.kind == action.kind
                and r.scope == action.scope
                and abs(r.start - action.start) < 0.5
            ):
                return r
        return None

    def timeline() -> _t.Generator:
        """Emit inject/heal entries; heal client-death records once the
        lease GC has reclaimed the corpse (their excusal window ends)."""
        entries = sorted(
            [(a.start, 0, "inject", a) for a in actions]
            + [(a.end, 1, "heal", a) for a in actions]
        )
        for when, _tie, what, action in entries:
            if when > env.now:
                yield env.timeout(when - env.now)
            if run.stopped:
                return
            if what == "heal" and action.kind == "client_death":
                rec = find_record(action)
                if rec is not None:
                    tracker.heal(rec, env.now)
            out(
                {
                    "event": what,
                    "t": round(env.now, 6),
                    "kind": action.kind,
                    "clause": action.clause,
                    "scope": list(action.scope),
                }
            )

    def probe(action: NemesisAction) -> _t.Generator:
        target = action.end + CONVERGENCE_GRACE
        if target > env.now:
            yield env.timeout(target - env.now)
        if run.stopped:
            return
        rec = find_record(action)
        self_id = rec.fault_id if rec is not None else None
        lo = (
            rec.healed_at
            if rec is not None and rec.healed_at is not None
            else action.end
        )
        findings: _t.List[_t.Tuple[str, str]] = []
        if action.kind == "client_death":
            return  # Healed by the timeline; nothing converges back.
        fault = action.fault
        if isinstance(fault, Partition):
            targets = [fault.client_id]
        else:
            targets = list(range(clients))
        for cid in targets:
            findings += probe_client_converged(cluster, cid)
        if isinstance(fault, MdsRestart):
            findings += probe_mds_converged(cluster, fault.shard)
        if action.kind in ("loss_burst", "delay_burst"):
            findings += probe_witness_converged(cluster)
        for kind, detail in findings:
            record(
                "liveness", kind,
                f"{detail} ({action.kind} healed at t={lo:.3f})",
                lo, env.now, grace=0.0, exclude_id=self_id,
            )

    def progress_monitor() -> _t.Generator:
        last = sum(s.requests_processed for s in cluster.metadata)
        lo = env.now
        while not run.stopped:
            yield env.timeout(PROGRESS_WINDOW)
            if run.stopped:
                return
            current = sum(
                s.requests_processed for s in cluster.metadata
            )
            hi = env.now
            if current == last:
                record(
                    "progress", "stuck-progress",
                    f"no MDS request processed in "
                    f"[{lo:.1f}, {hi:.1f})",
                    lo, hi, grace=CONVERGENCE_GRACE,
                )
            last = current
            lo = hi

    def sweep_monitor() -> _t.Generator:
        interval = max(60.0, horizon / max(1, sweeps))
        prev = env.now
        while not run.stopped:
            yield env.timeout(interval)
            if run.stopped:
                return
            verdict = judge_live(cluster)
            report.sweeps_run += 1
            out(
                {
                    "event": "sweep",
                    "t": round(env.now, 6),
                    "ok": verdict.ok,
                    "violations": len(verdict.violations),
                }
            )
            for kind, detail in verdict.violations:
                record(
                    "oracle", kind, detail, prev, env.now,
                    grace=CONVERGENCE_GRACE,
                )
            prev = env.now

    env.process(timeline(), name="soak-timeline")
    env.process(progress_monitor(), name="soak-progress")
    env.process(sweep_monitor(), name="soak-sweeps")
    for action in actions:
        env.process(probe(action), name=f"soak-probe-{action.start}")

    env.run(until=end_time)
    run.stop()
    if injector is not None:
        injector.stop()
    cluster.settle(grace=SETTLE_GRACE)

    # Final judgement on the quiescent cluster: the nemesis plan left
    # the tail fault-free, so nothing here is excusable.
    final_live = judge_live(cluster)
    for kind, detail in final_live.violations:
        record("final", kind, detail, end_time, env.now, grace=0.0)
    for kind, detail in judge_converged(cluster).violations:
        record("final", kind, detail, end_time, env.now, grace=0.0)
    if injector is not None:
        report.faults_injected = injector.summary()

    if shrink and not report.ok:
        report.counterexample = _shrink(
            report, actions, seed=seed, clients=clients, mode=mode,
            shards=shards, witness_capacity=witness_capacity,
            seed_bug=seed_bug,
        )
    out({"event": "summary", **report.as_dict()})
    return report


# -- shrinking a failing window --------------------------------------------

def _shrink(
    report: SoakReport,
    actions: _t.List[NemesisAction],
    *,
    seed: int,
    clients: int,
    mode: str,
    shards: int,
    witness_capacity: int,
    seed_bug: str,
    max_probes: int = 24,
) -> _t.Optional[_t.Dict[str, _t.Any]]:
    """Rebase the fault window around the first unexcused violation to
    the short-horizon check harness and ddmin it to a minimal schedule.
    """
    first = next((v for v in report.violations if not v.excused), None)
    if first is None:
        return None
    window = [
        a
        for a in actions
        if a.end >= first.time - SHRINK_LOOKBACK and a.start <= first.time
    ]
    if not window:
        return None
    delta = min(a.start for a in window) - 0.35
    span = max(a.end for a in window) - delta + CONVERGENCE_GRACE
    shifted = FaultSpec.of(a.fault for a in window).shifted(delta)
    clauses = schedule_events(shifted)

    def fails(subset: _t.List[str]) -> bool:
        outcome = run_schedule(
            compose(subset), seed=seed, clients=clients, mode=mode,
            shards=shards, witness_capacity=witness_capacity, run_span=span,
            seed_bug=seed_bug, workload=SoakWorkload(),
        )
        if not outcome.verdict.ok:
            return True
        return not judge_converged(outcome.cluster).ok

    if not fails(clauses):
        # The violation does not reproduce outside its long-run
        # context; report it unshrunk.
        return {
            "violation": first.as_dict(),
            "schedule": shifted.serialize(),
            "minimal": None,
            "shrink_probes": 1,
            "replay": None,
        }
    minimal, probes = ddmin(clauses, fails, max_probes=max_probes)
    minimal_text = compose(minimal).serialize()
    return {
        "violation": first.as_dict(),
        "schedule": shifted.serialize(),
        "minimal": minimal_text,
        "minimal_clauses": len(minimal),
        "shrink_probes": probes + 1,
        "replay": replay_command(
            minimal_text, seed=seed, clients=clients, shards=shards,
            witness_capacity=witness_capacity, workload="soak",
            duration=span, seed_bug=seed_bug,
        ),
    }
