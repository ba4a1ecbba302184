"""One oracle panel for both substrates.

:func:`repro.consistency.panel.judge_shards` judges per-shard durable state.
A simulated cluster hands it its ``MetadataServer`` objects; a live
shard hands it its dump, reloaded by :func:`repro.rt.smoke.load_shard`.
The same durable state must get the same verdict either way.
"""

import json

import pytest

from repro.check import judge_live, run_schedule
from repro.consistency.panel import judge_shards
from repro.faults.spec import FaultSpec
from repro.rt.server import ShardConfig, dump_shard_state
from repro.rt.smoke import load_shard


@pytest.fixture
def cluster():
    out = run_schedule(FaultSpec(), seed=0, shards=2)
    assert out.verdict.ok, out.verdict.violations
    return out.cluster


def test_file_on_a_foreign_shard_is_a_disjointness_violation(cluster):
    source, target = cluster.metadata.shard(0), cluster.metadata.shard(1)
    meta = next(iter(source.namespace.all_files()))
    del source.namespace._files[meta.file_id]
    del source.namespace._by_name[meta.name]
    target.namespace._files[meta.file_id] = meta
    target.namespace._by_name[meta.name] = meta.file_id

    verdict = judge_live(cluster)
    assert any(
        kind == "shard-disjointness"
        and f"file {meta.file_id} ({meta.name!r})" in detail
        and "owner is shard 0" in detail
        for kind, detail in verdict.violations
    ), verdict.violations


def _reloaded(cluster):
    """Every shard through its dump, JSON and the rt loader."""
    states = []
    for index, server in enumerate(cluster.metadata):
        config = ShardConfig(
            shard=index,
            shards=cluster.metadata.num_shards,
            data_dir=".",
            volume_size=cluster.config.disk.volume_size,
        )
        dump = json.loads(json.dumps(dump_shard_state(server, config)))
        state, problem = load_shard(dump)
        assert problem is None
        states.append(state)
    return states


def _geometry(space):
    return space.strategy, [(g.start, g.end) for g in space.groups]


def test_allocator_geometry_survives_dump_json_and_load(cluster):
    # The check cluster's shards run 8 ``random`` groups each, not the
    # live shard's 4 ``locality`` ones.
    assert _geometry(cluster.metadata.shard(0).space)[0] == "random"
    assert [_geometry(state.space) for state in _reloaded(cluster)] == [
        _geometry(server.space) for server in cluster.metadata
    ]


def _double_an_apply(cluster):
    server = cluster.metadata.shard(1)
    key = sorted(server.commit_apply_counts)[0]
    server.commit_apply_counts[key] = 2


def _drop_a_create(cluster):
    server = cluster.metadata.shard(0)
    index = next(
        i for i, entry in enumerate(server.oplog) if entry[0] == "create"
    )
    del server.oplog[index]


@pytest.mark.parametrize(
    "plant, kind",
    [
        (None, None),
        (_double_an_apply, "double-apply"),
        (_drop_a_create, "history-divergence"),
    ],
)
def test_same_durable_state_same_verdict_on_both_paths(cluster, plant, kind):
    if plant is not None:
        plant(cluster)
    stable = cluster.array.stable
    volume_size = cluster.config.disk.volume_size
    live = judge_shards(list(cluster.metadata), stable, volume_size)
    reloaded = judge_shards(_reloaded(cluster), stable, volume_size)
    assert reloaded.violations == live.violations
    assert {k for k, _ in live.violations} == ({kind} if kind else set())


def test_range_held_uncommitted_by_two_clients_is_an_fsck_violation(cluster):
    """Live state only: a reloaded shard rebuilds its space from the
    committed namespace and has no uncommitted books to judge."""
    space = cluster.metadata.shard(1).space
    offset = space.alloc(4096, client_id=0)
    space.note_uncommitted(1, offset, 4096)
    verdict = judge_shards(
        list(cluster.metadata),
        cluster.array.stable,
        cluster.config.disk.volume_size,
    )
    assert [kind for kind, _ in verdict.violations] == ["fsck"]
    assert verdict.violations[0][1].endswith("[shard 1]")
