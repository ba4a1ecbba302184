"""shards=1 is byte-identical to the pre-sharding cluster.

The sharded metadata service must be a pure superset: with one shard
the construction path, RNG stream names, transports, and fence keys
all collapse to exactly the legacy single-MDS build, so the block
trace of a golden workload is bit-for-bit what it was before the
refactor.  The digests (``tests/golden.py``) were captured from the
unsharded implementation; any drift here is a determinism regression.

These run real (short) workloads, so they carry the ``check`` marker
like the other heavyweight acceptance tests.
"""

import pytest

from tests.golden import GOLDEN, LEGACY_CELL, trace_digest


@pytest.mark.check
@pytest.mark.parametrize("system,workload", sorted(GOLDEN))
def test_single_shard_blktrace_matches_golden(system, workload):
    key = (system, workload)
    assert trace_digest(*key, **LEGACY_CELL) == GOLDEN[key]


@pytest.mark.check
def test_explicit_shards_1_is_also_identical():
    """Passing --shards 1 explicitly must take the same legacy path."""
    key = ("redbud-delayed", "varmail")
    assert trace_digest(*key, **LEGACY_CELL, shards=1) == GOLDEN[key]


def test_two_shards_diverges_but_stays_deterministic():
    """shards=2 is a different system (different placement), so the
    trace legitimately differs -- but it must be self-deterministic."""
    key = ("redbud-delayed", "xcdn-32K")
    a = trace_digest(*key, **LEGACY_CELL, shards=2)
    b = trace_digest(*key, **LEGACY_CELL, shards=2)
    assert a == b
    assert a != GOLDEN[key]
