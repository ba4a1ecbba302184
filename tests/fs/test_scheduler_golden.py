"""Aggregate-client determinism at the cluster level.

``client_processes=N`` (one node per personality) collapses to the
legacy layout byte-identically, and any ``P < N`` is deterministic
under a fixed seed even though it is a legitimately different system.
"""

from tests.golden import LEAN_CELL, blktrace_digest, run_cell


def _digest(**config):
    cluster = run_cell(
        "redbud-delayed", "xcdn-32K-lean", **LEAN_CELL, **config
    )
    return blktrace_digest(cluster)


def test_aggregate_run_is_deterministic():
    """Same seed, same (N, P): identical trace."""
    a = _digest(client_processes=2)
    b = _digest(client_processes=2)
    assert a == b


def test_aggregate_with_p_equals_n_is_legacy_identical():
    """client_processes == num_clients takes the legacy path verbatim."""
    legacy = _digest()
    collapsed = _digest(client_processes=4)
    assert collapsed == legacy


def test_aggregation_diverges_from_legacy():
    """P < N is a different system (mux RNG draws): its trace differs."""
    assert _digest(client_processes=2) != _digest()
