"""FaultSpec: mini-language parsing, validation, random schedules."""

import pytest

from repro.faults import (
    ClientDeath,
    FaultSpec,
    MdsRestart,
    Partition,
    ShardPartition,
)
from repro.util.rng import StreamRNG


def test_parse_full_spec():
    spec = FaultSpec.parse(
        "loss=0.05,delay=0.1:0.004,partition=1@0.2-0.5,"
        "mds_restart@0.5:0.2,client_death=2@0.8"
    )
    assert spec.loss == 0.05
    assert spec.delay_prob == 0.1
    assert spec.delay_max == 0.004
    assert spec.partitions == (Partition(client_id=1, start=0.2, end=0.5),)
    assert spec.mds_restarts == (MdsRestart(at=0.5, downtime=0.2),)
    assert spec.client_deaths == (ClientDeath(client_id=2, at=0.8),)
    assert not spec.empty


def test_parse_empty_and_whitespace():
    assert FaultSpec.parse("").empty
    assert FaultSpec.parse(" , ,, ").empty


def test_parse_repeated_clauses_accumulate():
    spec = FaultSpec.parse(
        "mds_restart@0.2:0.1,mds_restart@0.6:0.1,"
        "client_death=0@0.3,client_death=1@0.5"
    )
    assert len(spec.mds_restarts) == 2
    assert len(spec.client_deaths) == 2


def test_parse_unknown_clause_rejected():
    with pytest.raises(ValueError, match="unknown fault clause"):
        FaultSpec.parse("bogus=1")


@pytest.mark.parametrize(
    "text",
    [
        "loss=notanumber",
        "delay=0.1",  # missing :MAX
        "partition=1@0.5",  # missing -end
        "mds_restart@0.5",  # missing :downtime
        "client_death=0.8",  # missing @at
        "disk_loss=1@0.3",  # a retired clause: refused by its key
    ],
)
def test_parse_malformed_clause_rejected(text):
    kind = "unknown" if text.startswith("disk_loss=") else "malformed"
    with pytest.raises(ValueError, match=f"{kind} fault clause"):
        FaultSpec.parse(text)


@pytest.mark.parametrize(
    "kw",
    [
        {"loss": 1.0},
        {"loss": -0.1},
        {"delay_prob": 1.5},
        {"delay_prob": 0.1},  # delay without a positive max
        {"delay_max": -1.0},
    ],
)
def test_validation_rejects_bad_probabilities(kw):
    with pytest.raises(ValueError):
        FaultSpec(**kw)


def test_validation_rejects_bad_windows():
    with pytest.raises(ValueError):
        Partition(client_id=0, start=0.5, end=0.5)
    with pytest.raises(ValueError):
        MdsRestart(at=0.5, downtime=0.0)
    with pytest.raises(ValueError):
        ClientDeath(client_id=-1, at=0.5)


def test_parse_shard_targeted_restart():
    spec = FaultSpec.parse("mds_restart@0.5:0.2:shard=1")
    assert spec.mds_restarts == (
        MdsRestart(at=0.5, downtime=0.2, shard=1),
    )
    # Untargeted restarts keep shard=None (crash every shard).
    assert FaultSpec.parse("mds_restart@0.5:0.2").mds_restarts[0].shard is None


def test_parse_shard_partition():
    spec = FaultSpec.parse("shard_partition=1@0.1-0.3")
    assert spec.shard_partitions == (
        ShardPartition(shard=1, start=0.1, end=0.3),
    )
    assert not spec.empty


@pytest.mark.parametrize(
    "text",
    [
        "mds_restart@0.5:0.2:1",  # third part must be shard=K
        "mds_restart@0.5:0.2:shard=x",
        "shard_partition=1@0.5",  # missing -end
        "shard_partition=@0.1-0.3",
    ],
)
def test_parse_malformed_shard_clauses_rejected(text):
    with pytest.raises(ValueError, match="malformed fault clause"):
        FaultSpec.parse(text)


def test_shard_clause_validation():
    with pytest.raises(ValueError):
        MdsRestart(at=0.5, downtime=0.2, shard=-1)
    with pytest.raises(ValueError):
        ShardPartition(shard=-1, start=0.1, end=0.3)
    with pytest.raises(ValueError):
        ShardPartition(shard=0, start=0.3, end=0.3)


def test_shard_clauses_round_trip_exactly():
    """serialize() is the exact inverse of parse(), including floats
    with long reprs -- the explorer's replay contract."""
    for text in (
        "mds_restart@0.5:0.2:shard=1",
        "shard_partition=0@0.1-0.30000000000000004",
        "loss=0.05,mds_restart@0.25:0.1:shard=3,"
        "shard_partition=2@0.2-0.42",
    ):
        spec = FaultSpec.parse(text)
        assert spec.serialize() == text
        assert FaultSpec.parse(spec.serialize()) == spec


def test_random_schedule_is_deterministic_and_complete():
    def draw(seed):
        rng = StreamRNG(seed).stream("schedule")
        return FaultSpec.random(rng, duration=1.0, num_clients=3)

    a, b = draw(11), draw(11)
    assert a == b
    assert a != draw(12)

    # Every family is always exercised, and the partitioned client is
    # never the dying one (it must live to demonstrate fencing).
    assert a.loss > 0 and a.delay_prob > 0 and a.delay_max > 0
    assert len(a.partitions) == 1
    assert len(a.mds_restarts) == 1
    assert len(a.client_deaths) == 1
    assert a.partitions[0].client_id != a.client_deaths[0].client_id


def test_parse_unknown_clause_carries_offending_token():
    """A typo like ``client_deth=0@5`` must fail loudly, naming the
    token -- not silently arm nothing."""
    with pytest.raises(ValueError, match=r"client_deth=0@5"):
        FaultSpec.parse("loss=0.1,client_deth=0@5")
    with pytest.raises(ValueError, match=r"partitio=1@0.2-0.5"):
        FaultSpec.parse("partitio=1@0.2-0.5")


def test_parse_duplicate_scalar_clauses_rejected():
    """loss=/delay= are scalar fields: a repeat is a spec bug, and the
    parser must refuse rather than let the later clause win silently."""
    with pytest.raises(ValueError, match=r"loss=0\.2.*duplicate loss"):
        FaultSpec.parse("loss=0.1,loss=0.2")
    with pytest.raises(ValueError, match=r"duplicate delay"):
        FaultSpec.parse("delay=0.1:0.004,delay=0.2:0.01")
