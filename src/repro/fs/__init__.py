"""Whole-cluster assemblies: Redbud and the two baselines.

- :class:`ClusterConfig` -- every hardware and protocol parameter in one
  dataclass, with paper-calibrated defaults.
- :class:`RedbudCluster` -- the Redbud parallel file system (Fig. 2) in
  any commit mode, with or without space delegation.
- :class:`Nfs3Cluster` -- the NFS3 baseline: one server owns all data and
  metadata; clients ship data over Ethernet; server-side write-back with
  WRITE/COMMIT semantics.
- :class:`Pvfs2Cluster` -- the PVFS2 baseline: striped data servers, no
  client cache, synchronous write-through; strong at MPI-style large
  parallel I/O, weak at small-file updates.
- :func:`build_cluster` -- the one builder: a system name or a ready
  config, plus faults and a planted bug, becomes an armed assembly.
"""

from repro.fs.config import ClusterConfig
from repro.fs.nfs3 import Nfs3Cluster
from repro.fs.pvfs2 import Pvfs2Cluster
from repro.fs.redbud import RedbudCluster, RunResult
from repro.fs.factory import build_cluster

__all__ = [
    "ClusterConfig",
    "Nfs3Cluster",
    "Pvfs2Cluster",
    "RedbudCluster",
    "RunResult",
    "build_cluster",
]
