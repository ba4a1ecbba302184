"""Workload generators for the paper's evaluation (§V.B).

- :mod:`repro.workloads.spec` -- the workload abstraction and timing
  helpers.
- :mod:`repro.workloads.filebench` -- the three Filebench personalities
  the paper uses: **fileserver**, **varmail**, **webproxy**.
- :mod:`repro.workloads.xcdn` -- the CDN benchmark: small-file writes
  scattered over a large namespace, parameterised by file size.
- :mod:`repro.workloads.npb` -- an NPB BT-IO-like parallel writer with
  read-back verification (the paper's conflict-operation test).
- :mod:`repro.workloads.aggregate` -- aggregate client nodes: N workload
  personalities statistically multiplexed onto P < N simulated nodes, so
  10k-client populations run on a handful of processes.
- :mod:`repro.workloads.smoke` -- a finite create/write/fsync/unlink
  script whose durable outcome is known (``repro smoke``).

:data:`PAPER_WORKLOADS` names the paper's workload cells; the CLI, the
sweep harness and the figure benches all build them from it.
"""

import typing as _t

from repro.workloads.aggregate import aggregate_thread, assign_personalities
from repro.workloads.filebench import (
    FileserverWorkload,
    VarmailWorkload,
    WebproxyWorkload,
)
from repro.workloads.npb import NpbBtIoWorkload
from repro.workloads.smoke import SmokeWorkload
from repro.workloads.spec import Workload, WorkloadContext, timed
from repro.workloads.xcdn import XcdnWorkload

#: The paper's workload cells: name -> factory of a fresh personality.
PAPER_WORKLOADS: _t.Dict[str, _t.Callable[[], Workload]] = {
    "fileserver": lambda: FileserverWorkload(seed_files_per_client=15),
    "varmail": lambda: VarmailWorkload(seed_files_per_client=15),
    "webproxy": lambda: WebproxyWorkload(seed_files_per_client=20),
    "xcdn-32K": lambda: XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=25
    ),
    "xcdn-64K": lambda: XcdnWorkload(
        file_size=64 * 1024, seed_files_per_client=15
    ),
    "xcdn-1M": lambda: XcdnWorkload(
        file_size=1024 * 1024, seed_files_per_client=8
    ),
    "npb-bt": lambda: NpbBtIoWorkload(),
}

__all__ = [
    "FileserverWorkload",
    "PAPER_WORKLOADS",
    "SmokeWorkload",
    "aggregate_thread",
    "assign_personalities",
    "NpbBtIoWorkload",
    "VarmailWorkload",
    "WebproxyWorkload",
    "Workload",
    "WorkloadContext",
    "XcdnWorkload",
    "timed",
]
