"""Crash-injection and recovery tests: the §III consistency argument.

The central claim: with ordered writes (synchronous OR delayed commit),
a crash at ANY instant leaves the file system consistent -- committed
metadata never references unstable data.  The deliberately broken
``unordered`` mode violates this, proving the checker has teeth.
"""

import pytest

from repro.consistency import check_ordered_writes, crash_cluster, recover
from repro.fs import ClusterConfig, RedbudCluster
from repro.workloads import XcdnWorkload


def run_and_crash(commit_mode, crash_after, seed=3, delegation=False):
    config = ClusterConfig(
        num_clients=3,
        commit_mode=commit_mode,
        space_delegation=delegation,
    )
    cluster = RedbudCluster(config, seed=seed)
    workload = XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=5, threads_per_client=2
    )
    # Launch the workload but crash mid-flight instead of running out.
    env = cluster.env
    run = cluster.start_workload(workload)
    env.run(until=env.all_of(run.setups))

    state = crash_cluster(cluster, at_time=env.now + crash_after)
    return cluster, state


@pytest.mark.parametrize("mode", ["synchronous", "delayed"])
@pytest.mark.parametrize("crash_after", [0.01, 0.1, 0.5])
def test_ordered_modes_survive_crash(mode, crash_after):
    cluster, state = run_and_crash(
        mode, crash_after, delegation=(mode == "delayed")
    )
    ((namespace, space),) = state.shards
    report = check_ordered_writes(namespace, state.stable, space)
    assert report.consistent, report.summary()
    assert report.extents_checked > 0  # the check actually saw work


def test_unordered_mode_violates_invariant():
    """The control mode must (eventually) produce dangling metadata."""
    violated = False
    for crash_after in [0.02, 0.05, 0.1, 0.2, 0.4]:
        cluster, state = run_and_crash("unordered", crash_after)
        ((namespace, space),) = state.shards
        report = check_ordered_writes(namespace, state.stable, space)
        if not report.consistent:
            violated = True
            kinds = {v.kind for v in report.violations}
            assert "dangling-metadata" in kinds
            break
    assert violated, "unordered mode never produced a violation"


def test_crash_reports_lost_volatile_state():
    cluster, state = run_and_crash("delayed", 0.2, delegation=True)
    # A busy delayed-commit cluster loses queued commits and block I/O.
    assert state.lost_commit_records >= 0
    assert state.crash_time > 0
    for client in cluster.clients:
        assert client.crashed
        assert client.cache.resident_bytes == 0


def test_recovery_reclaims_orphans_and_rebalances():
    cluster, state = run_and_crash("delayed", 0.3, delegation=True)
    ((_, space),) = state.shards
    orphans_before = space.uncommitted_bytes()
    report = recover(state)
    assert report.pre_check.consistent
    assert report.orphan_bytes_reclaimed == orphans_before
    assert report.recovered_consistent, [
        v.detail for v in report.post_check.violations
    ]
    assert space.uncommitted_bytes() == 0


def test_recovery_after_sync_crash_is_clean():
    cluster, state = run_and_crash("synchronous", 0.2)
    report = recover(state)
    assert report.recovered_consistent
    # Sync commit may still leave orphans: allocations whose data was
    # being written when the lights went out.
    assert report.orphan_bytes_reclaimed >= 0


def test_crash_in_past_rejected():
    config = ClusterConfig(num_clients=1, commit_mode="delayed")
    cluster = RedbudCluster(config, seed=1)
    cluster.env.run(until=1.0)
    with pytest.raises(ValueError):
        crash_cluster(cluster, at_time=0.5)
