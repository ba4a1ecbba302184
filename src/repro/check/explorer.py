"""Systematic crash-schedule exploration ("Jepsen in virtual time").

Because the whole cluster runs inside a deterministic discrete-event
simulation, the checker can do what a real-hardware Jepsen cannot:
*enumerate* crash schedules.  The explorer runs three schedule families
against the same seeded workload:

1. **Probe** -- one fault-free run whose causal trace yields the
   timestamps at which each protocol transition point actually fired.
2. **Crash points** -- for every sampled transition timestamp ``t``, a
   schedule that cuts power at ``t + eps``: the state "just after" the
   protocol advanced, exactly the window an ordering bug exposes.
3. **Nemesis** -- seeded random fault combinations (loss, delay,
   partitions, MDS restarts, client deaths, optional crash cut) layered
   on the :mod:`repro.faults` injector.

Every schedule is judged by the oracle (:mod:`repro.check.oracle`); a
failing schedule is shrunk with ddmin (:mod:`repro.check.shrinker`) to a
minimal clause list that is directly replayable via ``repro run
--faults '<spec>'``.  Everything -- schedule generation, the runs, the
report -- is a pure function of ``(seed, budget, scope)``: two
invocations produce byte-identical reports.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.check.oracle import Verdict, judge_crash, judge_live
from repro.check.schedule import (
    compose,
    describe,
    replay_command,
    schedule_events,
)
from repro.check.shrinker import ddmin
from repro.check.transitions import TransitionCoverage, transition_times
from repro.check.workload import CheckWorkload
from repro.consistency.crash import crash_cluster
from repro.faults.spec import (
    ClientDeath,
    Clause,
    Crash,
    Delay,
    FaultSpec,
    Loss,
    MdsRestart,
    Partition,
    ShardPartition,
)
from repro.fs.config import ClusterConfig
from repro.fs.factory import build_cluster
from repro.fs.redbud import RedbudCluster
from repro.mds.server import MdsParameters
from repro.obs import Instrumentation
from repro.util.rng import StreamRNG

__all__ = ["RunOutcome", "Counterexample", "CheckReport", "check_config",
           "run_schedule", "explore"]

#: Crash "just after" a transition: the event at ``t`` has executed,
#: nothing later has.
EPS = 1e-7
#: Short lease so reclamation (and fencing) is reachable within a run.
LEASE_DURATION = 0.12
GC_SCAN_INTERVAL = 0.03
#: Virtual seconds of steady-state load after workload setup.
RUN_SPAN = 0.35
#: Post-schedule drain (covers one full retry backoff at max_timeout).
SETTLE_GRACE = 1.5


@dataclass
class RunOutcome:
    """One schedule, executed and judged."""

    spec: FaultSpec
    verdict: Verdict
    crashed: bool
    obs: Instrumentation
    cluster: RedbudCluster


@dataclass
class Counterexample:
    """A failing schedule reduced to its essential clauses."""

    schedule: str
    minimal: str
    kinds: _t.List[str]
    shrink_probes: int
    seed: int = 0
    clients: int = 3
    shards: int = 1
    witness_capacity: int = 0
    trace: _t.List[str] = field(default_factory=list)

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "schedule": self.schedule,
            "minimal": self.minimal,
            "minimal_clauses": len(
                [c for c in self.minimal.split(",") if c]
            ),
            "kinds": list(self.kinds),
            "shrink_probes": self.shrink_probes,
            "replay": replay_command(
                self.minimal, seed=self.seed, clients=self.clients,
                shards=self.shards, witness_capacity=self.witness_capacity,
            ),
            "trace": list(self.trace),
        }


@dataclass
class CheckReport:
    """The whole exploration, JSON-ready and wall-clock free."""

    seed: int
    budget: int
    mode: str
    clients: int
    shards: int = 1
    witness_capacity: int = 0
    schedules: _t.List[_t.Dict[str, _t.Any]] = field(default_factory=list)
    counterexamples: _t.List[Counterexample] = field(default_factory=list)
    coverage: _t.Dict[str, _t.Any] = field(default_factory=dict)
    shrink_probes: int = 0
    #: Commits acknowledged on the witness fast path over the judged
    #: schedules; reported only when witnesses are armed.
    fast_commits: int = 0

    @property
    def failures(self) -> int:
        return sum(1 for s in self.schedules if not s["ok"])

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        payload = {
            "seed": self.seed,
            "budget": self.budget,
            "mode": self.mode,
            "clients": self.clients,
            "shards": self.shards,
            "witness_capacity": self.witness_capacity,
            "schedules_run": len(self.schedules),
            "failures": self.failures,
            "ok": self.ok,
            "coverage": self.coverage,
            "schedules": self.schedules,
            "counterexamples": [
                c.as_dict() for c in self.counterexamples
            ],
            "shrink_probes": self.shrink_probes,
        }
        if self.witness_capacity:
            payload["fast_commits"] = self.fast_commits
        return payload

    def summary(self) -> str:
        cov = self.coverage.get("fraction", 0.0)
        witnessed = (
            f", {self.fast_commits} fast commit(s)"
            if self.witness_capacity
            else ""
        )
        return (
            f"check: {len(self.schedules)} schedules, "
            f"{self.failures} failing, coverage {cov:.0%}, "
            f"{len(self.counterexamples)} counterexample(s){witnessed}"
        )


def check_config(
    clients: int, mode: str, shards: int, witness_capacity: int
) -> ClusterConfig:
    """The cluster every check and soak run builds (``build_cluster``
    arms the RPC retry policy a faulted schedule needs)."""
    return ClusterConfig(
        num_clients=clients,
        commit_mode=mode,
        space_delegation=(mode != "synchronous"),
        mds=MdsParameters(
            lease_duration=LEASE_DURATION,
            gc_scan_interval=GC_SCAN_INTERVAL,
            shards=shards,
        ),
        witness_capacity=witness_capacity,
    )


def run_schedule(
    spec: FaultSpec,
    *,
    seed: int,
    clients: int = 3,
    mode: str = "delayed",
    shards: int = 1,
    witness_capacity: int = 0,
    run_span: float = RUN_SPAN,
    seed_bug: _t.Optional[str] = None,
    workload: _t.Optional[CheckWorkload] = None,
) -> RunOutcome:
    """Execute one schedule against the check workload and judge it.

    ``seed_bug`` names the bug ``build_cluster`` plants before anything
    runs (see ``repro.fs.factory.seed_bug_tweak``) -- the hook the
    self-test uses to seed a deliberate bug (e.g. disabling the MDS
    commit dedup table) and prove the checker finds it.
    ``workload`` swaps the driving mix (the soak shrinker replays with
    its slow-trickle workload so rebased long-horizon windows stay
    cheap); default is the standard check mix.
    """
    obs = Instrumentation()
    cluster = build_cluster(
        check_config(clients, mode, shards, witness_capacity),
        seed=seed, obs=obs, faults=spec, seed_bug=seed_bug,
    )
    env = cluster.env
    run = cluster.start_workload(workload or CheckWorkload())

    if spec.crash_at is not None:
        state = crash_cluster(
            cluster, at_time=max(spec.crash_at, env.now)
        )
        return RunOutcome(
            spec=spec,
            verdict=judge_crash(cluster, state),
            crashed=True,
            obs=obs,
            cluster=cluster,
        )

    env.run(until=env.all_of(run.setups))
    env.run(until=env.now + run_span)
    run.stop()
    if cluster.injector is not None:
        cluster.injector.stop()
    cluster.settle(grace=SETTLE_GRACE)
    return RunOutcome(
        spec=spec,
        verdict=judge_live(cluster),
        crashed=False,
        obs=obs,
        cluster=cluster,
    )


def _nemesis_spec(
    rng: StreamRNG,
    clients: int,
    shards: int = 1,
) -> FaultSpec:
    """Draw one random fault combination as clause objects.

    At ``shards == 1`` the draw sequence is frozen (CI asserts reports
    are byte-identical across runs *and* releases); sharded clauses gate
    on ``shards > 1`` and only add draws inside that gate.
    """
    clauses: _t.List[Clause] = []
    num_families = 8 + (1 if shards > 1 else 0)
    shard_family = 8 if shards > 1 else None
    family = rng.integers(0, num_families)
    t0 = round(rng.uniform(0.05, 0.30), 4)

    def restart(at: float, down: float) -> MdsRestart:
        """mds_restart, aimed at one shard half the time when sharded."""
        if shards > 1 and rng.random() < 0.5:
            return MdsRestart(at, down, rng.integers(0, shards))
        return MdsRestart(at, down)

    if family == 0:
        clauses.append(Loss(round(rng.uniform(0.02, 0.25), 3)))
    elif family == 1:
        clauses.append(
            Delay(
                round(rng.uniform(0.05, 0.3), 3),
                round(rng.uniform(0.001, 0.02), 4),
            )
        )
    elif family == 2:
        cid = rng.integers(0, clients)
        t1 = round(t0 + rng.uniform(0.05, 0.20), 4)
        clauses.append(Partition(cid, t0, t1))
    elif family == 3:
        down = round(rng.uniform(0.05, 0.20), 4)
        clauses.append(restart(t0, down))
    elif family == 4:
        cid = rng.integers(0, clients)
        clauses.append(ClientDeath(cid, t0))
    elif family == 5:
        # Reply loss around an MDS restart: the retransmit-after-
        # restart pattern that stresses exactly-once commit handling.
        clauses.append(Loss(round(rng.uniform(0.05, 0.3), 3)))
        down = round(rng.uniform(0.05, 0.20), 4)
        clauses.append(restart(t0, down))
    elif family == 6:
        cid = rng.integers(0, clients)
        t1 = round(t0 + rng.uniform(0.13, 0.25), 4)
        clauses.append(Partition(cid, t0, t1))
        down = round(rng.uniform(0.05, 0.15), 4)
        clauses.append(restart(round(t0 + 0.05, 4), down))
    elif family == 7:
        clauses.append(Loss(round(rng.uniform(0.02, 0.15), 3)))
        cid = rng.integers(0, clients)
        clauses.append(ClientDeath(cid, t0))
    elif family == shard_family:
        # Sharded deployments only: cut one metadata shard off from
        # every client while the others keep serving.
        sid = rng.integers(0, shards)
        t1 = round(t0 + rng.uniform(0.08, 0.22), 4)
        clauses.append(ShardPartition(sid, t0, t1))
    if rng.random() < 0.35:
        clauses.append(Crash(round(rng.uniform(0.10, 0.50), 4)))
    return FaultSpec.of(clauses)


def _trace_excerpt(
    outcome: RunOutcome, limit: int = 40
) -> _t.List[str]:
    """Causal context for a counterexample: faults + commit lifecycle."""
    tracer = outcome.obs.tracer
    interesting = {
        "commit_apply", "journal_write", "lease_reclaim", "array_fence",
        "write_fenced", "partition_start", "partition_end",
        "message_drop", "message_delay", "partition_drop",
        "witness_commit",
    }
    lines: _t.List[_t.Tuple[float, str]] = []
    for event in tracer.events:
        if event.cat == "fault" or event.name in interesting:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(event.args.items())
            )
            lines.append(
                (
                    event.time,
                    f"t={event.time:.6f} {event.name} "
                    f"[{event.node}] {detail}".rstrip(),
                )
            )
    for span in tracer.spans_named("rpc:commit"):
        lines.append(
            (
                span.start,
                f"t={span.start:.6f} rpc:commit sent "
                f"updates={list(span.update_ids)}",
            )
        )
    lines.sort(key=lambda pair: pair[0])
    if len(lines) > limit:
        # Keep the tail: the violation is at the end of the causal story.
        lines = lines[-limit:]
    return [text for _, text in lines]


def explore(
    budget: int = 200,
    seed: int = 0,
    *,
    clients: int = 3,
    mode: str = "delayed",
    shards: int = 1,
    witness_capacity: int = 0,
    seed_bug: _t.Optional[str] = None,
    max_counterexamples: int = 3,
    shrink_probe_budget: int = 24,
    samples_per_point: int = 3,
    log: _t.Optional[_t.Callable[[str], None]] = None,
) -> CheckReport:
    """Run up to ``budget`` schedules and report coverage + verdicts.

    The budget counts judged schedules (probe + crash points +
    nemesis); shrinking uses a separate bounded probe budget per
    counterexample so a pathological failure cannot eat the whole run.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = CheckReport(
        seed=seed, budget=budget, mode=mode, clients=clients,
        shards=shards, witness_capacity=witness_capacity,
    )
    coverage = TransitionCoverage()
    say = log if log is not None else (lambda _msg: None)

    def record(
        kind: str, spec: FaultSpec, outcome: RunOutcome
    ) -> None:
        coverage.observe(outcome.obs)
        if outcome.cluster.witnesses is not None:
            report.fast_commits += outcome.cluster.witnesses.fast_commits
        report.schedules.append(
            {
                "kind": kind,
                "spec": spec.serialize(),
                "describe": describe(spec),
                "ok": outcome.verdict.ok,
                "crashed": outcome.crashed,
                "violation_kinds": outcome.verdict.kinds(),
            }
        )

    def runner(spec: FaultSpec) -> RunOutcome:
        return run_schedule(
            spec, seed=seed, clients=clients, mode=mode, shards=shards,
            witness_capacity=witness_capacity, seed_bug=seed_bug,
        )

    # 1. Probe: fault-free baseline + transition timestamps.
    probe = runner(FaultSpec())
    record("probe", probe.spec, probe)
    candidates = transition_times(
        probe.obs, samples_per_point=samples_per_point
    )
    say(
        f"probe: {len(candidates)} crash candidates across "
        f"{len(coverage.covered)} live transition points"
    )

    # 2. Crash-point schedules.
    failures: _t.List[RunOutcome] = []
    remaining = budget - 1
    crash_specs = [
        (name, FaultSpec(crash_at=t + EPS))
        for name, t in candidates[: max(0, remaining)]
    ]
    for name, spec in crash_specs:
        outcome = runner(spec)
        record(f"crash-point:{name}", spec, outcome)
        if not outcome.verdict.ok:
            failures.append(outcome)
        remaining -= 1

    # 3. Nemesis schedules fill the rest of the budget.
    nemesis_root = StreamRNG(seed).stream("check", "nemesis")
    for i in range(max(0, remaining)):
        spec = _nemesis_spec(
            nemesis_root.stream(i), clients, shards
        )
        outcome = runner(spec)
        record("nemesis", spec, outcome)
        if not outcome.verdict.ok:
            failures.append(outcome)

    say(
        f"explored {len(report.schedules)} schedules: "
        f"{report.failures} failing"
    )

    # 4. Shrink the first few failures to minimal counterexamples.
    for outcome in failures[:max_counterexamples]:
        clauses = schedule_events(outcome.spec)

        def fails(subset: _t.List[str]) -> bool:
            return not runner(compose(subset)).verdict.ok

        minimal, probes = ddmin(
            clauses, fails, max_probes=shrink_probe_budget
        )
        report.shrink_probes += probes
        minimal_spec = compose(minimal)
        replay = runner(minimal_spec)
        report.counterexamples.append(
            Counterexample(
                schedule=outcome.spec.serialize(),
                minimal=minimal_spec.serialize(),
                kinds=replay.verdict.kinds() or outcome.verdict.kinds(),
                shrink_probes=probes,
                seed=seed,
                clients=clients,
                shards=shards,
                witness_capacity=witness_capacity,
                trace=_trace_excerpt(replay),
            )
        )
        say(
            f"shrunk {len(clauses)} -> {len(minimal)} clause(s) "
            f"in {probes} probes: {minimal_spec.serialize()!r}"
        )

    report.coverage = coverage.report()
    return report
