"""End-to-end behaviour of the sharded metadata service (shards=2).

The golden tests prove shards=1 is byte-identical to the legacy
cluster; these prove the sharded deployment actually *works*: files
spread across shards, every invariant (including the new cross-shard
disjointness oracle) holds under load, shard-targeted faults hit only
their target, and the explorer stays deterministic with the extra
nemesis family armed.
"""

import json

import pytest

from repro.check import explore, run_schedule
from repro.faults.spec import FaultSpec


def test_fault_free_sharded_run_is_balanced_and_clean():
    out = run_schedule(FaultSpec(), seed=0, shards=2)
    cluster = out.cluster
    assert out.verdict.ok, out.verdict.violations
    assert cluster.metadata.num_shards == 2

    stats = cluster.metadata.per_shard_stats()
    assert [row["shard"] for row in stats] == [0, 1]
    files = [row["files"] for row in stats]
    requests = [row["mds_requests"] for row in stats]
    # The hash router spreads the workload's files across both shards
    # within the 2x-of-ideal acceptance bound.
    assert all(n > 0 for n in files)
    assert max(files) <= 2 * (sum(files) / 2)
    assert all(n > 0 for n in requests)
    # Aggregates equal the per-shard sums.
    assert cluster.metadata.requests_processed == sum(requests)
    # Virtual time serves groups of one request.
    for server in cluster.metadata.servers:
        assert server.groups_served == server.requests_processed

    # The oracle ran its new cross-shard panel and found nothing.
    assert any(
        s.startswith("shard-disjointness: 2 shards, 0 violations")
        for s in out.verdict.summaries
    )
    assert any("[shard 0]" in s for s in out.verdict.summaries)
    assert any("[shard 1]" in s for s in out.verdict.summaries)


def test_shard_targeted_restart_hits_only_that_shard():
    out = run_schedule(
        FaultSpec.parse("mds_restart@0.1:0.05:shard=1"), seed=0, shards=2
    )
    cluster = out.cluster
    assert out.verdict.ok, out.verdict.violations
    assert cluster.metadata.shard(0).restarts == 0
    assert cluster.metadata.shard(1).restarts == 1


def test_shard_partition_drops_confined_to_target():
    out = run_schedule(
        FaultSpec.parse("shard_partition=1@0.05-0.15"), seed=0, shards=2
    )
    cluster = out.cluster
    assert out.verdict.ok, out.verdict.violations
    drops = [port.partition_drops for port in cluster.ports]
    assert drops[0] == 0
    assert drops[1] > 0


def test_sharded_crash_recovers_clean():
    out = run_schedule(FaultSpec.parse("crash@0.1"), seed=0, shards=2)
    assert out.crashed
    assert out.verdict.ok, out.verdict.violations
    assert any(
        s.startswith("shard-disjointness") for s in out.verdict.summaries
    )


def test_shard_clauses_rejected_on_single_shard_cluster():
    with pytest.raises(ValueError):
        run_schedule(
            FaultSpec.parse("shard_partition=1@0.05-0.15"), seed=0
        )
    with pytest.raises(ValueError):
        run_schedule(
            FaultSpec.parse("mds_restart@0.1:0.05:shard=1"), seed=0
        )


def test_sharded_explore_is_deterministic():
    first = explore(budget=5, seed=0, shards=2)
    second = explore(budget=5, seed=0, shards=2)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
    assert first.as_dict()["shards"] == 2
    assert first.ok, [s for s in first.schedules if not s["ok"]]


def test_sharded_nemesis_preserves_unsharded_draws():
    """Arming the shard nemesis family must not perturb the shards=1
    draw sequence: shards=1 CI reports stay byte-identical."""
    from repro.check.explorer import _nemesis_spec
    from repro.util.rng import StreamRNG

    def batch(shards):
        root = StreamRNG(0).stream("check", "nemesis")
        return [
            _nemesis_spec(root.stream(i), clients=3, shards=shards).serialize()
            for i in range(12)
        ]

    legacy = [
        _nemesis_spec(
            StreamRNG(0).stream("check", "nemesis").stream(i), clients=3
        ).serialize()
        for i in range(12)
    ]
    assert batch(1) == legacy  # default arg == explicit shards=1
    sharded = batch(2)
    assert sharded != legacy  # the new family actually fires...
    shard_clauses = [
        s for s in sharded if "shard" in s
    ]
    assert shard_clauses  # ...with shard-targeted clauses in the mix
