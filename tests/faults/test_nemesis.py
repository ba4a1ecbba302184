"""TrackedNemesis: plan determinism, validity, and safety constraints.

The whole soak harness leans on three properties of the planner:

1. *Determinism* -- the plan is a pure function of the RNG stream, so
   two soaks at the same seed replay byte-identically.
2. *Validity* -- every plan composes into one parseable FaultSpec (no
   same-scope overlaps), which is what makes ddmin shrinking free.
3. *Safety* -- deaths never take a majority, nothing lands in the
   tail margin.
"""

import pytest

from repro.check import compose
from repro.faults.nemesis import TAIL_MARGIN, TrackedNemesis
from repro.util.rng import StreamRNG

SHAPES = [
    dict(num_clients=4, shards=1),
    dict(num_clients=4, shards=4),
    dict(num_clients=6, shards=2),
]


def plan(seed=0, horizon=3600.0, intensity=1.0, **shape):
    shape = shape or SHAPES[0]
    nemesis = TrackedNemesis(
        StreamRNG(seed).stream("soak", "nemesis"),
        horizon,
        shape["num_clients"],
        shards=shape["shards"],
        intensity=intensity,
    )
    return nemesis.sample()


def test_plan_is_deterministic():
    first = plan(seed=7)
    second = plan(seed=7)
    assert [a.clause for a in first] == [a.clause for a in second]
    assert [a.clause for a in first] != [a.clause for a in plan(seed=8)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_composes_into_a_valid_spec(shape, seed):
    actions = plan(seed=seed, **shape)
    assert actions, "an hour of soak must plan at least one fault"
    spec = compose([a.clause for a in actions])
    assert not spec.empty
    if shape["shards"] > 1:
        kinds = {a.kind for a in actions}
        assert "shard_partition" in kinds


@pytest.mark.parametrize("shape", SHAPES)
def test_plan_respects_safety_constraints(shape):
    actions = plan(seed=3, **shape)
    deadline = 3600.0 - TAIL_MARGIN
    deaths = [a for a in actions if a.kind == "client_death"]
    assert len(deaths) <= (shape["num_clients"] - 1) // 2
    dead = set()
    for action in actions:
        assert action.start < action.end
        assert action.end <= deadline
        if action.kind == "partition":
            # A corpse is never partitioned after its death.
            assert action.scope[1] not in dead
        if action.kind == "client_death":
            dead.add(action.scope[1])


def test_no_same_scope_overlap_with_convergence_gap():
    actions = plan(seed=5, intensity=4.0, **SHAPES[2])
    last_end = {}
    for action in actions:
        key = (action.kind, action.scope)
        if key in last_end:
            assert action.start > last_end[key]
        last_end[key] = action.end


def test_intensity_scales_action_rate():
    calm = plan(seed=0, intensity=0.5)
    stormy = plan(seed=0, intensity=4.0)
    assert len(stormy) > len(calm)


def test_rejects_degenerate_parameters():
    rng = StreamRNG(0).stream("soak", "nemesis")
    with pytest.raises(ValueError, match="too short"):
        TrackedNemesis(rng, 10.0, 4)
    with pytest.raises(ValueError, match="intensity"):
        TrackedNemesis(rng, 3600.0, 4, intensity=0.0)
