"""What one repetition measures, and the order statistics over them."""

from __future__ import annotations

import math
import statistics
import typing as _t
from dataclasses import dataclass, field


#: Per-layer counters read from public attributes of the objects a
#: repetition built.  Every repetition reports all of them; one that does
#: not exist on a substrate (``sim.*`` on real sockets, ``rt.*`` and
#: ``net.wire.*`` on the simulator) reads 0.
COUNTER_NAMES: _t.Tuple[str, ...] = (
    "sim.events",
    "sim.events_per_s",
    "sim.host_s_per_virtual_s",
    "storage.requests_dispatched",
    "storage.merge_ratio",
    "storage.seek_fraction",
    "storage.array_utilization",
    "storage.cache_hit_ratio",
    "core.commit_rpcs",
    "core.ops_committed",
    "core.mean_compound_degree",
    "core.delegation_local_share",
    "core.pool_peak_threads",
    "mds.requests",
    "mds.ops_per_request",
    "mds.utilization",
    "mds.service_p99_ms",
    "net.rpc_messages",
    "net.rpc_retries",
    "net.wire.frames",
    "net.wire.bytes",
    "rt.requests_sent",
    "rt.replies_unmatched",
    "rt.client_cpu_s",
    "rt.shard_cpu_s",
    "client.dirty_throttle_events",
    "client.degraded_writes",
    "fs.virtual_ops_per_s",
)


def counters(values: _t.Dict[str, float]) -> _t.Dict[str, float]:
    """``values`` over a zero for every counter this substrate lacks."""
    unknown = set(values) - set(COUNTER_NAMES)
    if unknown:
        raise KeyError(f"unregistered counters: {sorted(unknown)}")
    return {**dict.fromkeys(COUNTER_NAMES, 0.0), **values}


@dataclass
class Rep:
    """One repetition of a workload's cell."""

    #: Host wall seconds from the start of the repetition to the first
    #: timed operation.
    setup_s: float
    #: Host wall / CPU seconds of the timed phase.  CPU is summed over
    #: every benchmark-owned process.
    timed_wall_s: float
    timed_cpu_s: float
    #: Operations completed in the timed phase; attempted and failed.
    ops: int
    attempted: int
    failed: int
    latency_p50_ms: float
    latency_p99_ms: float
    latency_samples: int
    #: What must be equal across repetitions of a deterministic cell
    #: (``None`` on the real-socket workload, which has no such thing).
    identity: _t.Optional[_t.Tuple[_t.Any, ...]]
    #: Per-layer counters read from public attributes after the run.
    counters: _t.Dict[str, float] = field(default_factory=dict)
    problems: _t.List[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.timed_wall_s

    @property
    def cpu_ms_per_op(self) -> float:
        return 1e3 * self.timed_cpu_s / self.ops if self.ops else math.inf


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when there is no whole."""
    return part / whole if whole else 0.0


def percentile(ordered: _t.Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending sequence (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def waited_quantile(hist: _t.Any, q: float) -> float:
    """``q`` quantile of a ``repro.obs`` histogram's samples above zero.

    ``RunResult.latency()`` cannot be reported as it is: on the delayed
    design most operations are absorbed by the cache in exactly 0 virtual
    seconds, so the pooled median is 0, and ``Histogram.quantile`` returns
    bucket midpoints, which read the same for every seed.  The driver
    refuses both.  So the zero bucket is left out and the quantile is
    placed inside its 2 % bucket by rank, as a histogram quantile usually
    is.
    """
    rank = q * (hist.count - hist.zero_count)
    for index in sorted(hist.buckets):
        count = hist.buckets[index]
        if rank <= count:
            return hist.GROWTH ** (index + rank / count)
        rank -= count
    return 0.0


def quartiles(values: _t.Sequence[float]) -> _t.Tuple[float, float, float]:
    """(q1, median, q3) within the range of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def iqr_ratio(values: _t.Sequence[float]) -> float:
    """(q3 - q1) / median: the spread the benchmark's bounds are set by."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
