"""Wiring: one object carrying the tracer, registry, and engine probe.

An :class:`Instrumentation` instance is created by the caller (CLI, test)
and handed to a cluster constructor; the cluster attaches it to its
environment (``env.obs``) before it builds anything, and every component
copies ``env.obs`` to its own ``obs`` at construction.  That reference is
``None`` when observability is off -- every hook site is guarded by
``if obs is not None``, so the untraced fast path costs one attribute
load and the traced path only appends to lists (no events scheduled, no
RNG consumed, no ordering perturbed).
"""

from __future__ import annotations

import typing as _t

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class EngineProbe:
    """Event-loop statistics: calendar depth and event sojourn time.

    The engine calls :meth:`on_step` for every event it pops (only when
    a probe is installed).  *Lag* is how long the entry sat on the
    calendar between scheduling and firing -- the virtual-time analogue
    of event-loop lag.
    """

    __slots__ = ("steps", "total_lag", "max_lag", "max_depth")

    def __init__(self) -> None:
        self.steps = 0
        self.total_lag = 0.0
        self.max_lag = 0.0
        self.max_depth = 0

    def on_step(self, lag: float, depth: int) -> None:
        self.steps += 1
        self.total_lag += lag
        if lag > self.max_lag:
            self.max_lag = lag
        if depth > self.max_depth:
            self.max_depth = depth

    @property
    def mean_lag(self) -> float:
        return self.total_lag / self.steps if self.steps else 0.0


class Instrumentation:
    """The observability bundle: tracer + metrics registry + probe."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.probe = EngineProbe()
        self._env: _t.Optional["Environment"] = None

    def attach(self, env: "Environment") -> None:
        """Bind to a cluster's environment (done by cluster ctors).

        Components built on ``env`` afterwards take the bundle from
        ``env.obs``.
        """
        self._env = env
        env.obs = self
        self.tracer.attach(env)
        env.probe = self.probe
        reg = self.registry
        reg.gauge("sim.events_processed", lambda: self.probe.steps)
        reg.gauge("sim.calendar.max_depth", lambda: self.probe.max_depth)
        reg.gauge("sim.event_lag.mean", lambda: self.probe.mean_lag)
        reg.gauge("sim.event_lag.max", lambda: self.probe.max_lag)
        reg.gauge("sim.now", lambda: env.now)


def register_redbud_gauges(obs: Instrumentation, cluster: _t.Any) -> None:
    """Register pull gauges over a RedbudCluster's live component state.

    Called by ``RedbudCluster.__init__`` when built with instrumentation;
    replaces the previous pattern of each experiment reaching into
    component-private dicts.  Metric names are documented in README.md
    ("Observability").
    """
    from repro.analysis.mergeratio import write_merge_ratio

    reg = obs.registry
    clients = cluster.clients

    # NB: truthiness won't do here -- CommitQueue defines __len__, so an
    # empty (drained) queue is falsy and would be silently skipped.
    queues = lambda: (  # noqa: E731
        c.commit_queue for c in clients if c.commit_queue is not None
    )
    reg.gauge(
        "commit_queue.depth", lambda: sum(len(q) for q in queues())
    )
    reg.gauge(
        "commit_queue.inserts", lambda: sum(q.inserts for q in queues())
    )
    reg.gauge(
        "commit_queue.dedup_hits",
        lambda: sum(q.dedup_hits for q in queues()),
    )
    reg.gauge(
        "commit_queue.peak_depth",
        lambda: max((q.peak_length for q in queues()), default=0),
    )
    reg.gauge(
        "commit.pool.threads",
        lambda: sum(
            c.thread_pool.thread_count
            for c in clients
            if c.thread_pool is not None
        ),
    )
    reg.gauge(
        "compound.degree.mean",
        lambda: _mean(
            c.compound.degree for c in clients if c.compound is not None
        ),
    )
    reg.gauge(
        "elevator.depth",
        lambda: sum(len(c.blockdev.scheduler) for c in clients),
    )
    reg.gauge(
        "elevator.merges",
        lambda: sum(c.blockdev.scheduler.stats.merges for c in clients),
    )
    reg.gauge(
        "elevator.merge_ratio",
        lambda: write_merge_ratio(c.blockdev.scheduler for c in clients),
    )
    reg.gauge(
        "delegation.local_allocs",
        lambda: sum(c.space_local_allocs for c in clients),
    )
    reg.gauge(
        "delegation.rpc_allocs",
        lambda: sum(c.space_rpc_allocs for c in clients),
    )
    reg.gauge("delegation.hit_rate", lambda: _lease_hit_rate(clients))
    # Aggregated across metadata shards (a single MDS is one shard).
    metadata = cluster.metadata
    reg.gauge("mds.queue_depth", lambda: metadata.queue_length)
    reg.gauge("mds.utilization", lambda: metadata.utilization)
    reg.gauge(
        "mds.requests_processed", lambda: metadata.requests_processed
    )
    reg.gauge("mds.ops_processed", lambda: metadata.ops_processed)
    if metadata.num_shards > 1:
        for k, server in enumerate(metadata):
            reg.gauge(
                f"mds.shard{k}.requests_processed",
                lambda s=server: s.requests_processed,
            )
            reg.gauge(
                f"mds.shard{k}.ops_processed",
                lambda s=server: s.ops_processed,
            )
            server.service_hist.name = f"mds.shard{k}.service_time"
            reg.adopt(server.service_hist)
    else:
        reg.adopt(metadata.shard(0).service_hist)
    reg.gauge("array.utilization", lambda: cluster.array.utilization)
    reg.gauge("array.ops_served", lambda: cluster.array.ops_served)
    reg.gauge("array.bytes_served", lambda: cluster.array.bytes_served)
    witnesses = getattr(cluster, "witnesses", None)
    if witnesses is not None:
        reg.gauge(
            "curp.fast_commits", lambda w=witnesses: w.fast_commits
        )
        reg.gauge(
            "curp.fallback_conflict",
            lambda w=witnesses: w.fallback_conflict,
        )
        reg.gauge(
            "curp.fallback_overflow",
            lambda w=witnesses: w.fallback_overflow,
        )
        reg.gauge("curp.outstanding", lambda w=witnesses: len(w))


def _mean(values: _t.Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def _lease_hit_rate(clients: _t.Sequence[_t.Any]) -> float:
    local = sum(c.space_local_allocs for c in clients)
    remote = sum(c.space_rpc_allocs for c in clients)
    total = local + remote
    return local / total if total else 0.0
