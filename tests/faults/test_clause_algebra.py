"""Clause objects own their text, their rebase and their tracker identity.

Each clause dataclass of :mod:`repro.faults.spec` is the one place its
``--faults`` atom is written (``str``), its times are rebased
(``shifted``) and its ``kind`` / ``scope`` are named.  These tests pin
the three against the consumers that used to restate them: the parser,
the soak shrinker's window rebase, and the injector's
:class:`~repro.faults.tracking.FaultRecord` registrations.
"""

import pytest

from repro.check.explorer import check_config
from repro.check.schedule import replay_command
from repro.check.soak import DEATH_RECOVERY, SHRINK_LOOKBACK, SoakWorkload
from repro.faults.nemesis import TrackedNemesis
from repro.faults.spec import (
    ClientDeath,
    Crash,
    Delay,
    DelayBurst,
    FaultSpec,
    Loss,
    LossBurst,
    MdsRestart,
    Partition,
    ShardPartition,
)
from repro.fs.factory import build_cluster
from repro.util.rng import StreamRNG

EVERY_FAMILY = [
    Loss(0.05),
    Loss(0.1 + 0.2),
    Delay(0.1, 0.004),
    LossBurst(0.173, 1e-05, 0.30000000000000004),
    DelayBurst(0.3, 0.0125, 36.2349, 39.3446),
    Partition(3, 0.35, 4.8308),
    MdsRestart(0.1552, 0.1202),
    MdsRestart(37.8046, 0.4853, shard=1),
    ShardPartition(0, 26.1314, 28.8009),
    ClientDeath(2, 40.3606),
    Crash(0.2),
]


@pytest.mark.parametrize("clause", EVERY_FAMILY, ids=str)
def test_parse_of_str_holds_exactly_the_clause(clause):
    assert FaultSpec.parse(str(clause)).clauses() == [clause]
    assert FaultSpec.of([clause]).serialize() == str(clause)


def test_serialize_joins_the_atoms_in_canonical_order():
    """Families in a fixed order, each family's clauses in given order."""
    spec = FaultSpec.of([
        Crash(0.2), ShardPartition(0, 0.1, 0.2), ClientDeath(2, 0.3),
        MdsRestart(0.5, 0.1), MdsRestart(0.4, 0.1, shard=1),
        Partition(1, 0.1, 0.2), DelayBurst(0.3, 0.01, 0.1, 0.2),
        LossBurst(0.2, 0.1, 0.2), Delay(0.1, 0.004), Loss(0.05),
    ])
    assert spec.serialize() == (
        "loss=0.05,delay=0.1:0.004,loss=0.2@0.1-0.2,"
        "delay=0.3:0.01@0.1-0.2,partition=1@0.1-0.2,"
        "mds_restart@0.5:0.1,mds_restart@0.4:0.1:shard=1,"
        "client_death=2@0.3,shard_partition=0@0.1-0.2,crash@0.2"
    )


def test_scalar_clauses_appear_once():
    with pytest.raises(ValueError, match="duplicate loss"):
        FaultSpec.of([Loss(0.1), Loss(0.2)])


# Soak windows (the shrinker's rule: every action that ends within
# SHRINK_LOOKBACK before ``t`` and starts by ``t``, rebased so the first
# starts at 0.35) and their text as the soak's former hand-written
# rebase rendered it.  That renderer wrote shard_partition atoms before
# client_death ones; ``serialize`` writes client_death first, so the
# two windows holding both (marked True) agree atom for atom but not in
# order.
SHIFTED_WINDOWS = [
    ((0, 4, 1, 120.0), False,
     "loss=0.09@0.35-3.9216,delay=0.298:0.0149@27.0429-29.6785,"
     "delay=0.322:0.0127@50.7167-51.9574"),
    ((0, 4, 1, 420.0), False,
     "delay=0.356:0.0059@20.5023-24.0567,partition=0@0.35-4.8308,"
     "mds_restart@37.384:0.391,mds_restart@59.6051:0.542"),
    ((0, 4, 1, 720.0), False,
     "loss=0.089@0.35-1.844,delay=0.261:0.0048@21.7774-22.8633,"
     "mds_restart@15.4205:0.9586"),
    ((1, 4, 2, 120.0), False,
     "loss=0.196@0.5311-1.9685,partition=0@0.35-4.945,"
     "partition=2@8.3448-11.5955,mds_restart@18.7077:0.5759:shard=0"),
    ((1, 4, 2, 420.0), False,
     "loss=0.078@35.266-37.6556,delay=0.179:0.0044@0.35-2.1495,"
     "mds_restart@7.2239:0.827:shard=0"),
    ((2, 6, 2, 420.0), True,
     "loss=0.252@40.6037-42.8893,shard_partition=0@0.35-2.688,"
     "client_death=0@40.3606"),
    ((2, 6, 2, 720.0), False,
     "partition=3@32.1724-34.8172,shard_partition=0@0.35-3.2729,"
     "shard_partition=0@24.1519-26.5415"),
    ((3, 4, 4, 120.0), True,
     "loss=0.056@35.3231-36.4129,shard_partition=2@52.8425-54.4707,"
     "client_death=0@0.35"),
    ((3, 4, 4, 420.0), False,
     "loss=0.142@7.3859-9.2009,mds_restart@0.35:0.6188:shard=3"),
    ((3, 4, 4, 720.0), False,
     "shard_partition=0@0.35-2.6581,shard_partition=3@52.957-56.523"),
]


@pytest.mark.parametrize(
    "where,reordered,expected", SHIFTED_WINDOWS,
    ids=[str(w[0]) for w in SHIFTED_WINDOWS],
)
def test_shifted_window_matches_the_former_soak_rebase(
    where, reordered, expected
):
    seed, clients, shards, t = where
    actions = TrackedNemesis(
        StreamRNG(seed).stream("soak", "nemesis"), 900.0, clients,
        shards=shards, intensity=2.0, death_recovery=DEATH_RECOVERY,
    ).sample()
    window = [
        a for a in actions if a.end >= t - SHRINK_LOOKBACK and a.start <= t
    ]
    delta = min(a.start for a in window) - 0.35
    text = FaultSpec.of(a.fault for a in window).shifted(delta).serialize()
    if reordered:
        assert sorted(text.split(",")) == sorted(expected.split(","))
        assert text.index("client_death") < text.index("shard_partition")
    else:
        assert text == expected


def test_shift_moves_times_only():
    spec = FaultSpec.parse(
        "loss=0.1,delay=0.2:0.003,mds_restart@10.5:0.25:shard=1,crash@12.0"
    )
    assert spec.shifted(10.0).serialize() == (
        "loss=0.1,delay=0.2:0.003,mds_restart@0.5:0.25:shard=1,crash@2.0"
    )


@pytest.mark.parametrize("seed,shards", [(2, 2), (1, 1)])
def test_nemesis_actions_name_the_records_the_injector_registers(
    seed, shards
):
    """Every planned action's (kind, scope, start) is the record the
    injector begins when the clause fires, and nothing else is."""
    actions = TrackedNemesis(
        StreamRNG(seed).stream("soak", "nemesis"), 240.0, 4,
        shards=shards, intensity=4.0, death_recovery=DEATH_RECOVERY,
    ).sample()
    kinds = {a.kind for a in actions}
    assert {"loss_burst", "delay_burst", "partition", "mds_restart"} <= kinds
    if shards > 1:
        assert "shard_partition" in kinds
    cluster = build_cluster(
        check_config(4, "delayed", shards, 0), seed=seed,
        faults=FaultSpec.of(a.fault for a in actions),
    )
    cluster.start_workload(SoakWorkload())
    cluster.env.run(until=max(a.end for a in actions) + 1.0)
    planned = sorted(
        (a.kind, a.scope, round(a.start, 6)) for a in actions
    )
    registered = sorted(
        (r.kind, r.scope, round(r.start, 6))
        for r in cluster.injector.tracker.records
    )
    assert registered == planned


def test_scalar_clauses_name_the_records_the_injector_registers():
    clauses = [Loss(0.05), Delay(0.1, 0.002)]
    cluster = build_cluster(
        check_config(2, "delayed", 1, 0), seed=0,
        faults=FaultSpec.of(clauses),
    )
    records = cluster.injector.tracker.records
    assert [(r.kind, r.scope) for r in records] == [
        (c.kind, c.scope) for c in clauses
    ]


def test_one_replay_builder_writes_both_front_ends():
    assert replay_command(
        "loss=0.173,mds_restart@0.1552:0.1202", seed=0, clients=3,
    ) == (
        "python -m repro run --faults "
        "'loss=0.173,mds_restart@0.1552:0.1202' --check --seed 0 "
        "--clients 3"
    )
    assert replay_command(
        "partition=0@24.5616-27.6713", seed=0, clients=4, shards=2,
        workload="soak", duration=58.3, seed_bug="degrade",
    ) == (
        "python -m repro run --workload soak --faults "
        "'partition=0@24.5616-27.6713' --check --seed 0 --clients 4 "
        "--duration 58.3 --shards 2 --seed-bug degrade"
    )
