"""replication=none is byte-identical to the unreplicated cluster.

The replicated storage group and CURP witnesses are a strict opt-in:
with ``replication="none"`` no group object is built, no RNG stream is
touched, and the disk serve loop takes the exact legacy path -- so the
block trace of a golden workload is bit-for-bit what it was before this
subsystem existed.  The digests are the ones the sharding golden test
pins (``tests/golden.py``: the same seed-11 traces).

Marked ``check`` like the other heavyweight golden tests.
"""

import pytest

from repro.fs.factory import build_cluster

from tests.golden import GOLDEN, LEGACY_CELL, trace_digest


@pytest.mark.check
@pytest.mark.parametrize(
    "system,workload",
    [("redbud-delayed", "varmail"), ("redbud-original", "xcdn-32K")],
)
def test_replication_none_blktrace_matches_golden(system, workload):
    key = (system, workload)
    digest = trace_digest(*key, **LEGACY_CELL, replication="none")
    assert digest == GOLDEN[key]


@pytest.mark.check
@pytest.mark.parametrize("replication", ["mirror3", "block4-2"])
def test_replicated_trace_diverges_but_stays_deterministic(replication):
    """A replicated cluster is a different system (secondary-ack waits
    perturb timing), so the trace legitimately differs from the golden
    -- but it must be self-deterministic."""
    key = ("redbud-delayed", "varmail")
    a = trace_digest(*key, **LEGACY_CELL, replication=replication)
    b = trace_digest(*key, **LEGACY_CELL, replication=replication)
    assert a == b
    assert a != GOLDEN[key]


def test_replication_rejected_on_non_redbud():
    with pytest.raises(ValueError, match="redbud"):
        build_cluster("nfs3", num_clients=3, seed=1, replication="mirror3")


def test_unknown_arrangement_rejected():
    with pytest.raises(ValueError, match="unknown replication"):
        build_cluster(
            "redbud-delayed", num_clients=3, seed=1, replication="raid9"
        )
