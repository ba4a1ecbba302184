"""Property-based crash testing: random crash instants, random seeds.

The strongest form of the paper's §III claim: under ordered writes
(delayed commit included), *no* crash instant produces dangling
metadata, and recovery always rebalances the allocator.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consistency import check_ordered_writes, crash_cluster, recover
from repro.fs import ClusterConfig, RedbudCluster
from repro.workloads import XcdnWorkload


def launch(commit_mode, seed, delegation):
    config = ClusterConfig(
        num_clients=2,
        commit_mode=commit_mode,
        space_delegation=delegation,
    )
    cluster = RedbudCluster(config, seed=seed)
    workload = XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=4, threads_per_client=2
    )
    run = cluster.start_workload(workload)
    cluster.env.run(until=cluster.env.all_of(run.setups))
    return cluster


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    crash_after=st.floats(0.005, 0.6),
    delegation=st.booleans(),
)
def test_delayed_commit_invariant_under_random_crashes(
    seed, crash_after, delegation
):
    cluster = launch("delayed", seed, delegation)
    state = crash_cluster(cluster, at_time=cluster.env.now + crash_after)
    ((namespace, space),) = state.shards
    report = check_ordered_writes(namespace, state.stable, space)
    assert report.consistent, report.summary()
    recovery = recover(state)
    assert recovery.recovered_consistent, [
        v.detail for v in recovery.post_check.violations
    ]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000), crash_after=st.floats(0.005, 0.4))
def test_synchronous_commit_invariant_under_random_crashes(
    seed, crash_after
):
    cluster = launch("synchronous", seed, False)
    state = crash_cluster(cluster, at_time=cluster.env.now + crash_after)
    ((namespace, space),) = state.shards
    report = check_ordered_writes(namespace, state.stable, space)
    assert report.consistent, report.summary()
