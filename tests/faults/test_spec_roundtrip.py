"""Property-based round-trip fuzz of the fault mini-language.

``FaultSpec.parse(spec.serialize()) == spec`` must hold for *every*
valid spec: floats render via ``repr`` (exact), clause order within a
family is preserved, and every family participates.  Plus validation
tests for the malformed shapes the generators must never emit: windows
that heal before they start, and duplicate-scope overlaps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ClientDeath,
    DelayBurst,
    FaultSpec,
    LossBurst,
    MdsRestart,
    Partition,
    ShardPartition,
)

probs = st.floats(
    0.001, 0.999, allow_nan=False, allow_infinity=False
)
delays = st.floats(
    1e-4, 0.5, allow_nan=False, allow_infinity=False
)
# (start-fraction, duration-fraction) pairs; each window is laid out in
# its own 20-second slot (start <= slot+9, duration <= 9.001) so
# same-scope windows can never overlap and every generated spec passes
# validation by construction.
fractions = st.tuples(
    st.floats(0.0, 0.9, allow_nan=False),
    st.floats(0.01, 0.9, allow_nan=False),
)


def _window(index: int, frac) -> tuple:
    start = index * 20.0 + frac[0] * 9.0
    return start, start + frac[1] * 9.0 + 1e-3


@st.composite
def fault_specs(draw):
    loss = draw(st.none() | probs)
    delay = draw(st.none() | st.tuples(probs, delays))
    loss_bursts = tuple(
        LossBurst(prob=draw(probs), start=w[0], end=w[1])
        for w in (
            _window(i, f)
            for i, f in enumerate(draw(st.lists(fractions, max_size=3)))
        )
    )
    delay_bursts = tuple(
        DelayBurst(
            prob=draw(probs), max_delay=draw(delays),
            start=w[0], end=w[1],
        )
        for w in (
            _window(i, f)
            for i, f in enumerate(draw(st.lists(fractions, max_size=3)))
        )
    )
    partitions = tuple(
        Partition(client_id=draw(st.integers(0, 3)), start=w[0], end=w[1])
        for w in (
            _window(i, f)
            for i, f in enumerate(draw(st.lists(fractions, max_size=3)))
        )
    )
    shard_partitions = tuple(
        ShardPartition(shard=draw(st.integers(0, 3)), start=w[0], end=w[1])
        for w in (
            _window(i, f)
            for i, f in enumerate(draw(st.lists(fractions, max_size=2)))
        )
    )
    mds_restarts = tuple(
        MdsRestart(
            at=draw(st.floats(0.0, 50.0, allow_nan=False)),
            downtime=draw(st.floats(0.01, 5.0, allow_nan=False)),
            shard=draw(st.none() | st.integers(0, 3)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    client_deaths = tuple(
        ClientDeath(
            client_id=cid, at=draw(st.floats(0.0, 50.0, allow_nan=False))
        )
        for cid in draw(
            st.lists(st.integers(0, 5), unique=True, max_size=3)
        )
    )
    return FaultSpec(
        loss=loss if loss is not None else 0.0,
        delay_prob=delay[0] if delay is not None else 0.0,
        delay_max=delay[1] if delay is not None else 0.0,
        loss_bursts=loss_bursts,
        delay_bursts=delay_bursts,
        partitions=partitions,
        shard_partitions=shard_partitions,
        mds_restarts=mds_restarts,
        client_deaths=client_deaths,
        crash_at=draw(st.none() | st.floats(0.0, 50.0, allow_nan=False)),
    )


@settings(max_examples=200, deadline=None)
@given(fault_specs())
def test_parse_serialize_roundtrip_is_exact(spec):
    assert FaultSpec.parse(spec.serialize()) == spec


@settings(max_examples=50, deadline=None)
@given(fault_specs())
def test_serialize_is_stable(spec):
    """serialize . parse . serialize is the identity on strings."""
    text = spec.serialize()
    assert FaultSpec.parse(text).serialize() == text


# -- malformed shapes the fuzz generator excludes by construction -------

@pytest.mark.parametrize(
    "text",
    [
        "partition=1@0.5-0.2",  # heals before it starts
        "partition=1@0.5-0.5",  # empty window
        "loss=0.1@3.0-1.0",
        "delay=0.2:0.01@2.0-2.0",
        "shard_partition=0@1.0-0.5",
    ],
)
def test_heal_before_start_rejected(text):
    with pytest.raises(ValueError):
        FaultSpec.parse(text)


@pytest.mark.parametrize(
    "text,scope",
    [
        ("partition=2@0.1-0.5,partition=2@0.4-0.9", "partition=2"),
        (
            "shard_partition=1@0.0-1.0,shard_partition=1@0.5-2.0",
            "shard_partition=1",
        ),
        ("loss=0.1@0.0-1.0,loss=0.2@0.9-2.0", "loss_burst=*"),
        (
            "delay=0.1:0.01@0.0-1.0,delay=0.3:0.02@0.5-1.5",
            "delay_burst=*",
        ),
    ],
)
def test_duplicate_scope_overlap_rejected(text, scope):
    with pytest.raises(ValueError, match="duplicate scope"):
        FaultSpec.parse(text)
    assert scope  # the message names the scope; match above pins it


def test_duplicate_scope_non_overlapping_allowed():
    spec = FaultSpec.parse("partition=2@0.1-0.5,partition=2@0.5-0.9")
    assert len(spec.partitions) == 2


def test_double_death_rejected():
    with pytest.raises(ValueError, match="more than"):
        FaultSpec.parse("client_death=1@0.2,client_death=1@0.8")
