"""CURP witnesses: the set's fallback rules and the 1-RTT commit path.

The unit tests drive :class:`~repro.core.witness.WitnessSet` directly:
the fast path, the conflict and overflow fallbacks (each refusing the
whole batch), ``sync`` retiring ranges, and the replay order.  The
cluster tests arm witnesses with ``witness_capacity`` on the single
shared array and hold crash replay and determinism of the whole path.
"""

import re

import pytest

from repro.check import run_schedule
from repro.core.witness import WitnessSet
from repro.faults import FaultSpec
from repro.fs.factory import build_cluster
from repro.mds.extent import Extent
from repro.net.messages import CommitOp
from repro.sim import Environment
from repro.workloads import XcdnWorkload


def op(op_id, file_id, *ranges):
    """A commit op of ``file_id`` covering the file ranges ``[lo, hi)``."""
    return CommitOp(
        file_id=file_id,
        extents=[
            Extent(
                file_offset=lo, length=hi - lo, device_id=0,
                volume_offset=lo,
            )
            for lo, hi in ranges
        ],
        op_id=op_id,
    )


def witnesses(capacity=8):
    return WitnessSet(Environment(), capacity=capacity, rtt=1e-4)


def keys(witness_set):
    return [(c, o) for c, o, _file, _extents in witness_set.unsynced_ops()]


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="capacity"):
        WitnessSet(Environment(), capacity=0, rtt=1e-4)
    with pytest.raises(ValueError, match="rtt"):
        WitnessSet(Environment(), capacity=4, rtt=0.0)


def test_fast_path_records_disjoint_batches():
    w = witnesses()
    assert w.try_record(0, [op(1, 7, (0, 4096)), op(2, 8, (0, 4096))])
    # Another client, the same file, a disjoint range: still commutes.
    assert w.try_record(1, [op(1, 7, (4096, 8192))])
    assert len(w) == 3
    assert w.fast_commits == 3
    assert w.fallback_conflict == w.fallback_overflow == 0


def test_conflict_refuses_the_whole_batch():
    w = witnesses()
    assert w.try_record(0, [op(1, 7, (0, 4096))])
    # The first op would commute; the second overlaps client 0's
    # unsynced range, so neither is recorded.
    batch = [op(1, 9, (0, 4096)), op(2, 7, (2048, 6144))]
    assert not w.try_record(1, batch)
    assert w.fallback_conflict == 1
    assert keys(w) == [(0, 1)]
    assert w.fast_commits == 1
    # Nothing of the refused batch was left behind on file 9.
    assert w.try_record(1, [op(3, 9, (0, 4096))])


def test_overflow_refuses_the_whole_batch():
    w = witnesses(capacity=3)
    assert w.try_record(0, [op(1, 1, (0, 10)), op(2, 2, (0, 10))])
    # Two more would exceed three slots: the batch is refused whole.
    assert not w.try_record(0, [op(3, 3, (0, 10)), op(4, 4, (0, 10))])
    assert w.fallback_overflow == 1
    assert keys(w) == [(0, 1), (0, 2)]
    # Filling the last slot exactly is allowed.
    assert w.try_record(0, [op(3, 3, (0, 10))])
    assert len(w) == w.capacity


def test_sync_retires_ranges():
    w = witnesses()
    assert w.try_record(0, [op(1, 7, (0, 4096)), op(2, 7, (8192, 12288))])
    assert not w.try_record(1, [op(1, 7, (0, 100))])
    w.sync(0, [1, 99])  # an op id the witnesses never saw is ignored
    assert w.synced_ops == 1
    assert keys(w) == [(0, 2)]
    assert w.try_record(1, [op(1, 7, (0, 100))])
    assert not w.try_record(1, [op(2, 7, (9000, 9100))])
    w.sync(0, [2])
    w.sync(1, [1])
    assert len(w) == 0 and w.synced_ops == 3
    # Every range of file 7 is free again.
    assert w.try_record(2, [op(1, 7, (0, 12288))])


def test_unsynced_ops_sorted_by_client_then_op():
    w = witnesses()
    assert w.try_record(2, [op(5, 1, (0, 10))])
    assert w.try_record(0, [op(9, 2, (0, 10)), op(3, 3, (0, 10))])
    assert w.try_record(1, [op(4, 4, (0, 10))])
    ops = w.unsynced_ops()
    assert keys(w) == [(0, 3), (0, 9), (1, 4), (2, 5)]
    client_id, op_id, file_id, extents = ops[0]
    assert (client_id, op_id, file_id) == (0, 3, 3)
    assert [(e.file_offset, e.file_end) for e in extents] == [(0, 10)]


def test_witness_capacity_is_the_only_switch():
    assert build_cluster("redbud-delayed", num_clients=2).witnesses is None
    armed = build_cluster(
        "redbud-delayed", num_clients=2, witness_capacity=16
    )
    assert armed.witnesses is not None
    assert armed.witnesses.capacity == 16
    # The synchronous path has no unordered commit to witness.
    sync = build_cluster(
        "redbud-original", num_clients=2, witness_capacity=16
    )
    assert sync.witnesses is None


def test_crash_replays_witnessed_commits_exactly_once():
    """Witnesses armed on the single shared array: a crash under
    message loss leaves unsynced witnessed ops; replay applies the ones
    the MDS never saw, deduplicates the rest, and the panel is clean."""
    outcome = run_schedule(
        FaultSpec.parse("loss=0.1,crash@0.25"), seed=0, witness_capacity=16
    )
    verdict = outcome.verdict
    assert verdict.ok, verdict.violations
    replay = next(s for s in verdict.summaries if s.startswith("witness"))
    applied, deduplicated = map(
        int, re.fullmatch(
            r"witness replay: (\d+) applied, (\d+) deduplicated", replay
        ).groups()
    )
    assert applied >= 1 and deduplicated >= 1
    assert outcome.cluster.witnesses.replayed_ops == applied
    assert "exactly-once: max applies per commit = 1" in verdict.summaries
    assert max(
        count
        for server in outcome.cluster.metadata
        for count in server.commit_apply_counts.values()
    ) == 1


@pytest.mark.faults
def test_witness_path_is_deterministic():
    """Same seed + spec => identical witness counters and block trace."""

    def run():
        cluster = build_cluster(
            "redbud-delayed", num_clients=3, seed=7, witness_capacity=16,
            faults=FaultSpec.parse("loss=0.05"),
        )
        cluster.run_workload(
            XcdnWorkload(
                file_size=32 * 1024, seed_files_per_client=4,
                threads_per_client=2,
            ),
            duration=0.8, warmup=0.1,
        )
        cluster.injector.stop()
        cluster.env.run(until=cluster.env.now + 0.5)
        return cluster.witnesses.summary(), cluster.blktrace.to_rows()

    first = run()
    assert first == run()
    assert first[0]["fast_commits"] > 0
