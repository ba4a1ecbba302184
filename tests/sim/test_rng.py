"""Tests for reproducible RNG streams."""

import numpy as np
import pytest

from repro.util.rng import StreamRNG


def test_same_seed_same_draws():
    a, b = StreamRNG(42), StreamRNG(42)
    assert [a.uniform(0, 1) for _ in range(5)] == [
        b.uniform(0, 1) for _ in range(5)
    ]


def test_named_streams_are_independent_and_stable():
    root = StreamRNG(42)
    s1 = root.stream("disk")
    s2 = root.stream("workload", 3)
    s1_again = StreamRNG(42).stream("disk")
    assert s1.uniform(0, 1) == s1_again.uniform(0, 1)
    # Different stream keys give different sequences.
    r1 = StreamRNG(42).stream("disk")
    r2 = StreamRNG(42).stream("workload", 3)
    assert [r1.random() for _ in range(4)] != [r2.random() for _ in range(4)]


def test_adding_a_stream_does_not_perturb_others():
    def draws(with_extra):
        root = StreamRNG(7)
        if with_extra:
            root.stream("new-subsystem").random()
        return [root.stream("disk").random() for _ in range(3)]

    assert draws(False) == draws(True)


def test_string_and_int_keys_hash_stably():
    a = StreamRNG(1).stream("client", 0)
    b = StreamRNG(1).stream("client", 0)
    assert a.integers(0, 1000) == b.integers(0, 1000)


def test_draw_helpers_in_range():
    rng = StreamRNG(3).stream("t")
    for _ in range(50):
        assert 0.0 <= rng.uniform(0, 1) < 1.0
        assert 0 <= rng.integers(0, 10) < 10
        assert rng.exponential(2.0) >= 0.0
        assert rng.pareto(2.0, scale=5.0) >= 5.0
        assert rng.random() < 1.0


def test_choice_and_weighted_choice():
    rng = StreamRNG(3).stream("c")
    seq = ["a", "b", "c"]
    assert rng.choice(seq) in seq
    assert rng.weighted_choice(seq, [0, 0, 1]) == "c"
    with pytest.raises(ValueError):
        rng.choice([])
    with pytest.raises(ValueError):
        rng.weighted_choice(seq, [1, 2])
    with pytest.raises(ValueError):
        rng.weighted_choice(seq, [0, 0, 0])


def test_shuffle_deterministic():
    def shuffled():
        rng = StreamRNG(9).stream("s")
        items = list(range(20))
        rng.shuffle(items)
        return items

    assert shuffled() == shuffled()
    assert shuffled() != list(range(20))


def test_generator_exposed_for_vectorised_draws():
    rng = StreamRNG(1)
    arr = rng.generator.random(10)
    assert isinstance(arr, np.ndarray)
    assert arr.shape == (10,)


def test_lognormal_and_normal():
    rng = StreamRNG(4).stream("n")
    assert rng.lognormal(0.0, 0.5) > 0
    values = [rng.normal(10.0, 1.0) for _ in range(100)]
    assert 8.0 < np.mean(values) < 12.0
