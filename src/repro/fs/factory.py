"""Factory: the one place a cluster description becomes an armed cluster.

A description is one of the four Fig. 3 system names plus
:class:`ClusterConfig` keywords, or a ready :class:`ClusterConfig` (a
Redbud cluster), plus an optional fault spec and planted bug.
:func:`shape_error` says which shapes only Redbud has, without building
anything; :func:`build_cluster` refuses the same shapes, builds, and
arms the cluster in a fixed order:

1. an RPC :class:`~repro.net.rpc.RetryPolicy` when the fault spec is
   non-empty and the config sets none (an empty spec arms nothing, so
   the run stays event-for-event identical to one without faults);
2. the planted seed bug (:func:`seed_bug_tweak`);
3. the :class:`~repro.faults.injector.FaultInjector`, kept as
   ``cluster.injector``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.fs.base import BaseCluster
from repro.fs.config import ClusterConfig
from repro.fs.nfs3 import Nfs3Cluster
from repro.fs.pvfs2 import Pvfs2Cluster
from repro.fs.redbud import RedbudCluster
from repro.net.rpc import RetryPolicy

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.spec import FaultSpec

#: The four systems compared in Fig. 3.
SYSTEMS = (
    "pvfs2",
    "nfs3",
    "redbud-original",
    "redbud-delayed",
)

#: Each system's config factory (the baselines run synchronous commit).
_CONFIGS: _t.Dict[str, _t.Callable[..., ClusterConfig]] = {
    "pvfs2": lambda **kw: ClusterConfig(commit_mode="synchronous", **kw),
    "nfs3": lambda **kw: ClusterConfig(commit_mode="synchronous", **kw),
    "redbud-original": ClusterConfig.original_redbud,
    "redbud-delayed": ClusterConfig.space_delegation_config,
}

def seed_bug_tweak(
    name: _t.Optional[str],
) -> _t.Optional[_t.Callable[[RedbudCluster], None]]:
    """The tweak that plants seed bug ``name`` in a freshly built
    cluster (self-tests), or None for no bug."""
    if name == "dedup":

        def tweak(cluster: RedbudCluster) -> None:
            cluster.metadata.set_commit_dedup_enabled(False)

        return tweak
    if name == "degrade":
        # Suppress the delayed->sync reversion: once a fault pushes a
        # client into sync fallback it never recovers -- a pure
        # *liveness* bug that only the convergence oracles can see.
        def tweak(cluster: RedbudCluster) -> None:
            for client in cluster.clients:
                client.degrade_exit_enabled = False

        return tweak
    if name in (None, "", "none"):
        return None
    raise ValueError(f"unknown seed bug {name!r}")


def shape_error(
    system: str,
    *,
    shards: _t.Optional[int] = None,
    witness_capacity: int = 0,
    faults: _t.Optional[FaultSpec] = None,
    check: bool = False,
    seed_bug: _t.Optional[str] = None,
    processes: _t.Optional[int] = None,
) -> _t.Optional[str]:
    """Why ``system`` cannot take this shape, or ``None``.

    Sharding, witnesses, faults (a crash cut included), ``--check``
    and planted bugs are Redbud's alone.  Aggregated client nodes
    (``processes``) refuse ``client_death`` clauses only: a death
    addresses one workload personality by index, and a node hosts many.
    Every other clause family targets links or shards, which
    aggregation leaves intact.
    """
    if not system.startswith("redbud"):
        for flag, used in (
            (
                "--faults",
                faults is not None
                and (not faults.empty or faults.crash_at is not None),
            ),
            ("--shards", shards is not None and shards > 1),
            ("--witness-capacity", witness_capacity > 0),
            ("--check", check),
            ("--seed-bug", seed_bug not in (None, "", "none")),
        ):
            if used:
                return f"{flag} supports the redbud systems only"
    if processes is not None and faults is not None and faults.client_deaths:
        return (
            "--processes cannot be combined with a --faults spec "
            "containing client_death clauses (offending clause: "
            f"{faults.client_deaths[0]}; client indexing assumes one "
            "node per client)"
        )
    return None


def build_cluster(
    system: _t.Union[str, ClusterConfig],
    num_clients: _t.Optional[int] = None,
    seed: int = 0,
    obs: _t.Optional[_t.Any] = None,
    *,
    faults: _t.Optional[FaultSpec] = None,
    seed_bug: _t.Optional[str] = None,
    **config_kw: _t.Any,
) -> BaseCluster:
    """Build a ready-to-run, armed cluster.

    ``system`` is a Fig. 3 system name (``num_clients`` defaults to the
    paper's 7) or a ready :class:`ClusterConfig`, which builds a
    :class:`RedbudCluster` and carries its own client count.  ``redbud-delayed`` enables both delayed commit and space
    delegation (the full paper configuration); ``redbud-original`` is
    synchronous.  ``obs`` is an optional :class:`repro.obs.Instrumentation`
    bundle; when given, the cluster traces causal spans and publishes
    metrics.  ``shards`` (redbud systems only) splits the metadata
    service into that many shards.  Any other keyword lands on
    :class:`ClusterConfig` -- notably ``witness_capacity`` (CURP
    witnesses, redbud systems only) and ``client_processes`` (aggregate
    client nodes: ``num_clients`` personalities multiplexed onto that
    many simulated nodes, see ``repro.workloads.aggregate``).

    ``faults`` and ``seed_bug`` (a :func:`seed_bug_tweak` name) arm the cluster in the order the module docstring
    gives.  A shape :func:`shape_error` refuses raises ``ValueError``.
    """
    if isinstance(system, ClusterConfig):
        if config_kw:
            raise TypeError(
                f"a ready ClusterConfig takes no config keywords: "
                f"{sorted(config_kw)}"
            )
        if num_clients not in (None, system.num_clients):
            raise TypeError(
                f"num_clients={num_clients} contradicts the ready "
                f"ClusterConfig's {system.num_clients}"
            )
        system, config = "redbud", system
        shards = None
    else:
        if system not in _CONFIGS:
            raise ValueError(
                f"unknown system {system!r}; pick from {SYSTEMS}"
            )
        shards = config_kw.pop("shards", None)
        config = _CONFIGS[system](
            num_clients=7 if num_clients is None else num_clients,
            **config_kw,
        )
    error = shape_error(
        system,
        shards=shards,
        witness_capacity=config.witness_capacity,
        faults=faults,
        seed_bug=seed_bug,
        processes=config.client_processes,
    )
    if error is not None:
        raise ValueError(error)
    if shards is not None:
        config = config.with_shards(shards)
    armed = faults is not None and not faults.empty
    if armed and config.retry is None:
        config = dataclasses.replace(config, retry=RetryPolicy())
    cls = {"pvfs2": Pvfs2Cluster, "nfs3": Nfs3Cluster}.get(
        system, RedbudCluster
    )
    cluster = cls(config, seed=seed, obs=obs)
    tweak = seed_bug_tweak(seed_bug)
    if tweak is not None:
        tweak(cluster)
    if armed:
        # Imported here: an unfaulted run never loads the fault package.
        from repro.faults.injector import FaultInjector

        cluster.injector = FaultInjector(cluster, faults)
    return cluster
