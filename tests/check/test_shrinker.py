"""ddmin: minimality, memoization, budget behaviour."""

import pytest

from repro.check import ddmin


def test_single_culprit_found():
    clauses = [f"c{i}" for i in range(8)]
    minimal, _probes = ddmin(clauses, lambda s: "c5" in s)
    assert minimal == ["c5"]


def test_interacting_pair_kept():
    clauses = [f"c{i}" for i in range(8)]
    minimal, _probes = ddmin(
        clauses, lambda s: "c1" in s and "c6" in s
    )
    assert sorted(minimal) == ["c1", "c6"]


def test_all_clauses_necessary():
    clauses = ["a", "b", "c"]
    minimal, _probes = ddmin(
        clauses, lambda s: set(s) == {"a", "b", "c"}
    )
    assert sorted(minimal) == ["a", "b", "c"]


def test_initial_must_fail():
    with pytest.raises(ValueError, match="does not fail"):
        ddmin(["a", "b"], lambda s: False)


def test_memoized_predicate_never_repeats():
    seen = []

    def fails(subset):
        key = tuple(subset)
        assert key not in seen, f"probe repeated: {key}"
        seen.append(key)
        return "x" in subset

    minimal, probes = ddmin(["a", "x", "b", "c"], fails)
    assert minimal == ["x"]
    # The initial input is evaluated once, outside the probe count.
    assert probes == len(seen) - 1


def test_probe_budget_caps_work():
    clauses = [f"c{i}" for i in range(16)]
    calls = {"n": 0}

    def fails(subset):
        calls["n"] += 1
        return "c9" in subset

    minimal, probes = ddmin(clauses, fails, max_probes=5)
    assert probes <= 5
    assert "c9" in minimal  # best-effort reduction still fails


def test_single_clause_input():
    calls = []

    def fails(subset):
        calls.append(list(subset))
        return "only" in subset

    minimal, probes = ddmin(["only"], fails)
    assert minimal == ["only"]
    assert probes == 0
    # One clause is already minimal: no run at all, not even the
    # initial check.
    assert calls == []
