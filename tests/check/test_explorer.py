"""End-to-end checks of the crash-schedule explorer.

The quick tests here run single schedules and a tiny exploration; the
seeded-bug acceptance test (find a real protocol bug, shrink it to a
minimal schedule, replay it) is marked ``check`` and runs in the CI
check job alongside the full-budget exploration.
"""

import json

import pytest

from repro.check import explore, run_schedule
from repro.faults.spec import FaultSpec


def test_fault_free_run_passes():
    out = run_schedule(FaultSpec(), seed=0)
    assert not out.crashed
    assert out.verdict.ok, out.verdict.violations
    # The workload actually drove the system: data became durable and
    # every invariant checker had something to chew on.
    assert out.cluster.array.stable.total() > 0
    assert out.cluster.metadata.shard(0).oplog


def test_crash_point_run_recovers_clean():
    out = run_schedule(FaultSpec.parse("crash@0.05"), seed=0)
    assert out.crashed
    assert out.verdict.ok, out.verdict.violations


def test_oracle_has_teeth_in_unordered_mode():
    """Unordered commit mode is the paper's broken baseline: a crash
    must produce dangling metadata, and the checker must say so."""
    out = run_schedule(
        FaultSpec.parse("crash@0.05"), seed=0, mode="unordered"
    )
    assert not out.verdict.ok
    kinds = set(out.verdict.kinds())
    assert kinds & {"dangling-metadata", "commit-before-stable"}, kinds


def test_partition_fences_then_readmits_client():
    """A partition longer than the lease gets client 0 fenced by the
    GC; its first RPC after healing re-admits it at the new
    generation, and the run still satisfies every invariant."""
    out = run_schedule(FaultSpec.parse("partition=0@0.05-0.2"), seed=0)
    cluster = out.cluster
    assert out.verdict.ok, out.verdict.violations
    fences = [
        e
        for e in out.obs.tracer.events
        if e.name == "array_fence" and e.args.get("client") == 0
    ]
    assert fences and fences[0].time < 0.35  # fenced during the run
    assert cluster.array.fence_generations[(0, 0)] >= 1
    assert (
        cluster.clients[0].blockdev.write_generations[0]
        == cluster.array.fence_generations[(0, 0)]
    )


def test_explore_is_deterministic_and_covers_everything():
    first = explore(budget=6, seed=0)
    second = explore(budget=6, seed=0)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
    assert first.ok, [s for s in first.schedules if not s["ok"]]
    assert first.schedules[0]["kind"] == "probe"
    assert first.coverage["fraction"] == 1.0
    assert len(first.schedules) == 6


def test_nemesis_generator_is_seeded_and_varied():
    from repro.check.explorer import _nemesis_spec
    from repro.util.rng import StreamRNG

    def batch(seed):
        root = StreamRNG(seed).stream("check", "nemesis")
        return [
            _nemesis_spec(root.stream(i), clients=3).serialize()
            for i in range(8)
        ]

    assert batch(0) == batch(0)  # deterministic per seed
    assert batch(0) != batch(1)  # seed actually matters
    assert len(set(batch(0))) > 1  # and schedules are diverse


@pytest.mark.check
def test_seeded_dedup_bug_found_shrunk_and_replayable():
    """Acceptance: disable the MDS commit reply cache (exactly-once is
    now broken), explore, and the harness must find it, shrink it to a
    <=3-clause schedule, and that minimal schedule must replay."""

    report = explore(budget=60, seed=0, seed_bug="dedup")
    assert report.failures > 0
    assert report.counterexamples
    ce = report.counterexamples[0]
    assert "double-apply" in ce.kinds
    minimal_clauses = [c for c in ce.minimal.split(",") if c]
    assert 1 <= len(minimal_clauses) <= 3
    # The minimal schedule reproduces on a fresh cluster with the bug.
    replay = run_schedule(
        FaultSpec.parse(ce.minimal),
        seed=ce.seed,
        clients=ce.clients,
        seed_bug="dedup",
    )
    assert not replay.verdict.ok
    assert "double-apply" in replay.verdict.kinds()
    # ... and passes on a healthy cluster: the fault schedule alone is
    # not enough, the bug is required.
    healthy = run_schedule(
        FaultSpec.parse(ce.minimal), seed=ce.seed, clients=ce.clients
    )
    assert healthy.verdict.ok, healthy.verdict.violations


@pytest.mark.check
def test_healthy_exploration_has_no_false_positives():
    report = explore(budget=40, seed=0)
    assert report.ok, [s for s in report.schedules if not s["ok"]]
    assert report.coverage["fraction"] >= 0.9
