"""Smoke's script in virtual time.

``repro smoke`` runs :class:`SmokeWorkload` on live clients over real
sockets (``tests/rt``); the same class, unchanged, runs on a simulated
cluster through the same driver.  Once the set-ups end the run is over,
the panel is clean and the durable namespaces hold exactly the files and
sizes the clients expect.
"""

import pytest

from repro.check import judge_live
from repro.fs import ClusterConfig, build_cluster
from repro.workloads import SmokeWorkload


@pytest.mark.parametrize("shards", [1, 2])
def test_smoke_script_runs_in_virtual_time(shards):
    config = ClusterConfig.delayed_commit(
        num_clients=4, fixed_compound_degree=4
    ).with_shards(shards)
    cluster = build_cluster(config, seed=11)
    env = cluster.env
    run = cluster.start_workload(SmokeWorkload())
    env.run(until=env.all_of(run.setups))

    verdict = judge_live(cluster)
    assert verdict.ok, verdict.violations
    durable = {
        meta.file_id: meta.size
        for server in cluster.metadata
        for meta in server.namespace.all_files()
    }
    # 4 clients x 6 files of 32 KiB, the fourth of each unlinked.
    assert durable == run.contexts[0].shared["expect"]
    assert sorted(set(durable.values())) == [32 * 1024]
    assert len(durable) == 20
    names = {
        meta.name
        for server in cluster.metadata
        for meta in server.namespace.all_files()
    }
    assert "c1-f0" in names and "c4-f5" in names and "c1-f3" not in names
