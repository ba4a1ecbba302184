"""Tests for cluster configuration and the system factory."""

import pytest

from repro.fs import ClusterConfig, Nfs3Cluster, Pvfs2Cluster, RedbudCluster
from repro.fs.factory import SYSTEMS, build_cluster


def test_default_config_matches_paper_testbed():
    config = ClusterConfig()
    assert config.num_clients == 7
    assert config.delegation_chunk == 16 * 1024 * 1024
    assert config.thread_pool.max_threads == 9
    assert config.link.bandwidth == 125e6  # 1 Gbps


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_clients=0)
    with pytest.raises(ValueError):
        ClusterConfig(commit_mode="eventual")
    with pytest.raises(ValueError):
        ClusterConfig(commit_mode="synchronous", space_delegation=True)


def test_factory_methods_produce_paper_configs():
    orig = ClusterConfig.original_redbud(num_clients=3)
    assert orig.commit_mode == "synchronous"
    assert not orig.space_delegation
    delayed = ClusterConfig.delayed_commit(num_clients=3)
    assert delayed.commit_mode == "delayed"
    assert not delayed.space_delegation
    deleg = ClusterConfig.space_delegation_config(num_clients=3)
    assert deleg.commit_mode == "delayed"
    assert deleg.space_delegation


def test_build_cluster_all_systems():
    for system in SYSTEMS:
        cluster = build_cluster(system, num_clients=2, seed=1)
        assert cluster.num_clients == 2
        assert cluster.client_fs(0) is not None
        assert cluster.client_fs(1) is not cluster.client_fs(0)
    with pytest.raises(ValueError):
        build_cluster("gfs")


def test_build_redbud_variants():
    orig = build_cluster("redbud-original", num_clients=2)
    assert isinstance(orig, RedbudCluster)
    assert orig.config.commit_mode == "synchronous"
    delayed = build_cluster("redbud-delayed", num_clients=2)
    assert delayed.config.commit_mode == "delayed"
    assert delayed.config.space_delegation
    assert list(delayed.clients[0].delegation_pools) == [0]


def test_build_baselines():
    assert isinstance(build_cluster("nfs3", num_clients=2), Nfs3Cluster)
    assert isinstance(build_cluster("pvfs2", num_clients=2), Pvfs2Cluster)


def test_ready_config_refuses_a_contradicting_client_count():
    config = ClusterConfig(num_clients=3)
    assert build_cluster(config, num_clients=3).num_clients == 3
    with pytest.raises(TypeError):
        build_cluster(config, num_clients=7)
