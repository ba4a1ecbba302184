"""Heal paths per fault family, judged by the convergence probes.

The injection tests prove the cluster *survives* faults; these prove it
*comes back* after each family heals -- the liveness half the soak
harness judges continuously.  Each schedule runs on the check harness
with the soak workload (slow enough that multi-second fault windows
fit), then the family's convergence probe must report clean:

- partition lift   -> traffic resumes, degradation reverts, backlog drains
- MDS restart      -> server back up, lease GC scanning again
- witness backlog  -> fully replayed below capacity after network churn
"""

import pytest

from repro.check import compose, run_schedule
from repro.check.soak import (
    SoakWorkload,
    judge_converged,
    probe_client_converged,
    probe_mds_converged,
    probe_witness_converged,
)

pytestmark = pytest.mark.faults


def run(clauses, *, seed=0, clients=3, witness_capacity=0, shards=1,
        span=20.0, seed_bug=None):
    return run_schedule(
        compose(clauses), seed=seed, clients=clients, shards=shards,
        witness_capacity=witness_capacity, run_span=span,
        seed_bug=seed_bug,
        workload=SoakWorkload(),
    )


# This window provably pushes client 1 into sync fallback (three
# consecutive RPC timeouts land inside it at this seed), so the pair of
# tests below observes both arms of the hysteresis: reversion on heal,
# and the probe catching a suppressed reversion.
PARTITION = ["partition=1@20.0-24.0"]


def test_partition_lift_restores_traffic():
    outcome = run(PARTITION, clients=4, span=34.0)
    assert outcome.verdict.ok
    cluster = outcome.cluster
    assert probe_client_converged(cluster, 1) == []
    client = cluster.clients[1]
    assert not client.degraded
    # The partition bit hard enough to enter degradation, and the heal
    # reverted it: both hysteresis transitions fired.
    assert client.degrade_transitions == 2
    assert client.rpc.retries > 0
    assert judge_converged(cluster).ok


def test_partition_heal_probe_catches_suppressed_reversion():
    # Same schedule, but with the delayed->sync reversion disabled the
    # probe must report the client stuck in sync fallback: this is the
    # planted liveness bug the soak self-test hunts.
    outcome = run(
        PARTITION, clients=4, span=34.0, seed_bug="degrade"
    )
    cluster = outcome.cluster
    assert cluster.clients[1].degraded
    findings = probe_client_converged(cluster, 1)
    assert any(kind == "liveness-degrade-stuck" for kind, _ in findings)
    verdict = judge_converged(cluster)
    assert not verdict.ok
    assert "converge-degrade-stuck" in verdict.kinds()


def test_mds_restart_resumes_lease_gc():
    outcome = run(["mds_restart@5.0:1.0"])
    assert outcome.verdict.ok
    cluster = outcome.cluster
    assert probe_mds_converged(cluster) == []
    for server in cluster.metadata:
        assert not server.down
        assert server.gc is not None and not server.gc.paused
    # The restart actually happened.
    assert cluster.metadata.restarts == 1


def test_sharded_restart_heals_only_its_shard():
    outcome = run(["mds_restart@5.0:1.0:shard=1"], shards=2)
    assert outcome.verdict.ok
    assert probe_mds_converged(outcome.cluster, 1) == []
    assert probe_mds_converged(outcome.cluster) == []


def test_witness_backlog_replays_after_network_churn():
    outcome = run(
        ["loss=0.1@5.0-8.0", "delay=0.2:0.01@9.0-12.0"],
        witness_capacity=16,
    )
    assert outcome.verdict.ok
    cluster = outcome.cluster
    assert cluster.witnesses is not None
    assert cluster.witnesses.fast_commits > 0
    assert probe_witness_converged(cluster) == []
    assert len(cluster.witnesses) < cluster.witnesses.capacity


def test_client_death_leaves_survivors_converged():
    outcome = run(["client_death=2@5.0"])
    assert outcome.verdict.ok
    cluster = outcome.cluster
    assert cluster.clients[2].crashed
    # Probes skip the corpse and the survivors are clean.
    assert probe_client_converged(cluster, 2) == []
    assert judge_converged(cluster).ok
