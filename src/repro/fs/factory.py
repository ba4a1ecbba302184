"""Factory: build any of the four Fig. 3 systems by name."""

from __future__ import annotations

import typing as _t

from repro.fs.base import BaseCluster
from repro.fs.config import ClusterConfig
from repro.fs.nfs3 import Nfs3Cluster
from repro.fs.pvfs2 import Pvfs2Cluster
from repro.fs.redbud import RedbudCluster

#: The four systems compared in Fig. 3.
SYSTEMS = (
    "pvfs2",
    "nfs3",
    "redbud-original",
    "redbud-delayed",
)


def build_cluster(
    system: str,
    num_clients: int = 7,
    seed: int = 0,
    obs: _t.Optional[_t.Any] = None,
    **config_kw: _t.Any,
) -> BaseCluster:
    """Build a ready-to-run cluster for one of the Fig. 3 systems.

    ``redbud-delayed`` enables both delayed commit and space delegation
    (the full paper configuration); ``redbud-original`` is synchronous.
    ``obs`` is an optional :class:`repro.obs.Instrumentation` bundle;
    when given, the cluster traces causal spans and publishes metrics.
    ``shards`` (redbud systems only) splits the metadata service into
    that many shards; ``shards=1`` is byte-identical to the single MDS.
    ``replication`` (redbud systems only) puts a replicated storage
    group behind the disk array (``mirror3`` / ``block4-2``);
    ``replication="none"`` is byte-identical to an unreplicated build.
    Any other keyword lands on :class:`ClusterConfig` -- notably
    ``client_processes`` (aggregate client nodes: ``num_clients``
    personalities multiplexed onto that many simulated nodes, see
    ``repro.workloads.aggregate``).
    """
    shards = config_kw.pop("shards", None)
    if shards is not None and shards > 1 and not system.startswith(
        "redbud"
    ):
        raise ValueError(
            f"metadata sharding requires a redbud system, got {system!r}"
        )
    replication = config_kw.pop("replication", None)
    if (
        replication is not None
        and replication != "none"
        and not system.startswith("redbud")
    ):
        raise ValueError(
            f"storage replication requires a redbud system, got {system!r}"
        )
    if system == "pvfs2":
        return Pvfs2Cluster(
            ClusterConfig(
                num_clients=num_clients,
                commit_mode="synchronous",
                **config_kw,
            ),
            seed=seed,
            obs=obs,
        )
    if system == "nfs3":
        return Nfs3Cluster(
            ClusterConfig(
                num_clients=num_clients,
                commit_mode="synchronous",
                **config_kw,
            ),
            seed=seed,
            obs=obs,
        )
    if system == "redbud-original":
        config = ClusterConfig.original_redbud(
            num_clients=num_clients, **config_kw
        )
        if shards is not None:
            config = config.with_shards(shards)
        if replication is not None:
            config = config.with_replication(replication)
        return RedbudCluster(config, seed=seed, obs=obs)
    if system == "redbud-delayed":
        config = ClusterConfig.space_delegation_config(
            num_clients=num_clients, **config_kw
        )
        if shards is not None:
            config = config.with_shards(shards)
        if replication is not None:
            config = config.with_replication(replication)
        return RedbudCluster(config, seed=seed, obs=obs)
    raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
