"""Ordered-writes semantics: invariant checking, crashes, recovery.

The whole point of ordered writes (§I, §III) is this invariant: *metadata
at the MDS never references data that is not stable on disk*.  Violating
it leaves the file system describing "invalid or not available data".
The weaker direction -- data on disk without metadata ("orphan" data) --
is acceptable and reclaimed by garbage collection.

- :mod:`repro.consistency.invariant` -- the checker for both directions.
- :mod:`repro.consistency.crash` -- whole-cluster power-loss injection.
- :mod:`repro.consistency.recovery` -- post-crash scan + orphan GC.
- :mod:`repro.consistency.history` -- oplog replay + trace-level
  ordering checks (the full-history oracle ``repro.check`` judges with).
- :mod:`repro.consistency.panel` -- the oracle panel over per-shard
  durable state, shared by ``repro.check`` and ``repro smoke``.
"""

from repro.consistency.crash import CrashState, crash_cluster
from repro.consistency.fsck import FsckReport, fsck, rebuild_free_space
from repro.consistency.history import (
    HistoryReport,
    check_commit_ordering,
    check_history,
)
from repro.consistency.invariant import (
    ConsistencyReport,
    Violation,
    check_ordered_writes,
)
from repro.consistency.recovery import RecoveryReport, recover

__all__ = [
    "ConsistencyReport",
    "CrashState",
    "FsckReport",
    "HistoryReport",
    "RecoveryReport",
    "Violation",
    "check_commit_ordering",
    "check_history",
    "check_ordered_writes",
    "crash_cluster",
    "fsck",
    "rebuild_free_space",
    "recover",
]
