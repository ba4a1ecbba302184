"""End-to-end fault injection: survival, exactly-once, determinism.

These are the acceptance tests of the partial-failure model: seeded
fault schedules (message loss/delay/reorder, partitions, MDS restarts,
client deaths) run against the full Redbud cluster, after which the
paper's ordered-writes invariant must still hold, no commit op may have
been applied twice, and the lease collector must have reclaimed the
dead clients' orphan space.

Marked ``faults``: each test simulates seconds of heavily perturbed
virtual time, so CI runs them in their own job.
"""

import pytest

from repro.consistency import check_ordered_writes, crash_cluster, recover
from repro.faults import FaultInjector, FaultSpec
from repro.fs import ClusterConfig, RedbudCluster
from repro.mds.server import MdsParameters
from repro.net.rpc import RetryPolicy
from repro.util.rng import StreamRNG
from repro.workloads import XcdnWorkload

pytestmark = pytest.mark.faults

#: Aggressive enough to recover quickly at simulated-Ethernet RTTs.
RETRY = RetryPolicy(base_timeout=0.02, max_timeout=0.3, jitter=0.2)


def build_cluster(seed, retry=None, lease=None, num_clients=3, obs=None):
    mds = MdsParameters(
        num_daemons=4,
        lease_duration=lease,
        gc_scan_interval=0.05 if lease is not None else 5.0,
    )
    config = ClusterConfig(
        num_clients=num_clients,
        commit_mode="delayed",
        space_delegation=True,
        retry=retry,
        mds=mds,
    )
    return RedbudCluster(config, seed=seed, obs=obs)


def workload():
    return XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=4, threads_per_client=2
    )


def run_faulted(seed, spec, duration=1.0, obs=None):
    cluster = build_cluster(seed, retry=RETRY, lease=0.15, obs=obs)
    injector = FaultInjector(cluster, spec)
    cluster.run_workload(workload(), duration=duration, warmup=0.1)
    injector.stop()
    # Drain in-flight retries and give the lease collector time to
    # notice any dead client (lease 0.15 s + scan 0.05 s << 1 s).
    cluster.env.run(until=cluster.env.now + 1.0)
    return cluster, injector


def assert_recovered_consistent(cluster):
    mds = cluster.metadata.shard(0)
    applies = list(mds.commit_apply_counts.values())
    assert applies and max(applies) <= 1, "a commit op was applied twice"
    state = crash_cluster(cluster)
    ((namespace, space),) = state.shards
    report = check_ordered_writes(namespace, state.stable, space)
    assert report.consistent, report.summary()
    recovery = recover(state)
    assert recovery.recovered_consistent, [
        v.detail for v in recovery.post_check.violations
    ]


def test_injector_requires_retry_policy():
    cluster = build_cluster(seed=1, retry=None)
    with pytest.raises(ValueError, match="retry policy"):
        FaultInjector(cluster, FaultSpec(loss=0.1))


def test_injector_rejects_unknown_clients():
    from repro.faults import ClientDeath, Partition

    cluster = build_cluster(seed=1, retry=RETRY)
    with pytest.raises(ValueError, match="partition names client"):
        FaultInjector(
            cluster,
            FaultSpec(partitions=(Partition(client_id=9, start=0.1, end=0.2),)),
        )
    cluster = build_cluster(seed=1, retry=RETRY)
    with pytest.raises(ValueError, match="client_death names client"):
        FaultInjector(
            cluster,
            FaultSpec(client_deaths=(ClientDeath(client_id=9, at=0.1),)),
        )


def test_empty_spec_is_byte_identical():
    """Installing an empty fault spec must not perturb the simulation.

    The empty models draw no RNG and add no delay, so the blktrace must
    match a cluster that never saw the fault machinery at all.
    """

    def rows(with_injector):
        cluster = build_cluster(seed=9)
        if with_injector:
            FaultInjector(cluster, FaultSpec())
        cluster.run_workload(workload(), duration=0.5, warmup=0.1)
        return cluster.blktrace.to_rows()

    assert rows(False) == rows(True)


def test_same_seed_same_spec_is_reproducible():
    """Same seed + same fault spec => byte-identical traces and events."""
    from repro.obs import Instrumentation

    spec = FaultSpec.parse(
        "loss=0.05,delay=0.1:0.003,partition=1@0.3-0.5,"
        "mds_restart@0.45:0.1,client_death=2@0.7"
    )

    def run():
        obs = Instrumentation()
        cluster, injector = run_faulted(13, spec, duration=0.8, obs=obs)
        return (
            cluster.blktrace.to_rows(),
            obs.tracer.events,
            obs.tracer.spans,
            injector.summary(),
        )

    rows_a, events_a, spans_a, summary_a = run()
    rows_b, events_b, spans_b, summary_b = run()
    assert summary_a == summary_b
    assert rows_a == rows_b
    assert events_a == events_b
    assert spans_a == spans_b
    assert summary_a["total_injected"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_schedules_recover_consistently(seed):
    """Property test: any seeded schedule must leave the cluster in a
    state where the ordered-writes invariant holds, no commit was
    double-applied, and the dead client's space was reclaimed."""
    rng = StreamRNG(seed).stream("schedule")
    spec = FaultSpec.random(rng, duration=1.1, num_clients=3)
    cluster, injector = run_faulted(seed, spec, duration=1.0)

    assert injector.stats.total_injected > 0
    dead = spec.client_deaths[0].client_id
    assert cluster.clients[dead].crashed
    assert cluster.metadata.shard(0).space.uncommitted_bytes(dead) == 0, (
        "lease GC failed to reclaim the dead client's orphan space"
    )
    assert_recovered_consistent(cluster)


def test_acceptance_schedule_with_hundreds_of_faults():
    """The ISSUE acceptance bar: a schedule injecting >= 100 faults
    completes with consistent recovery, exactly-once commits, and
    lease-reclaimed space."""
    spec = FaultSpec.parse(
        "loss=0.08,delay=0.15:0.004,partition=1@0.4-0.6,"
        "mds_restart@0.5:0.15,client_death=2@0.8"
    )
    cluster, injector = run_faulted(21, spec, duration=1.2)

    assert injector.stats.total_injected >= 100
    mds = cluster.metadata.shard(0)
    assert mds.restarts == 1
    # Loss at this rate forces retransmissions, and some duplicates
    # reach the server -- and every one must be suppressed.
    assert cluster.clients[0].rpc.retries + cluster.clients[1].rpc.retries > 0
    assert (
        mds.duplicate_requests_suppressed + mds.duplicate_commits_suppressed
        > 0
    )
    # The dead client's delegated space became orphaned and must have
    # been reclaimed by the lease collector.
    assert mds.gc is not None
    assert mds.gc.bytes_reclaimed_total > 0
    assert mds.space.uncommitted_bytes(2) == 0
    assert_recovered_consistent(cluster)
