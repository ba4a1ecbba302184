"""Arm a built cluster with a :class:`~repro.faults.spec.FaultSpec`.

Determinism contract: every random decision draws from a named child
stream of the cluster's root RNG (``root.stream("faults", link_name)``),
and link verdicts are drawn in the link's own send order -- which the
event kernel already makes deterministic.  Same seed + same spec =>
identical fault sequence, byte-identical traces.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.faults.spec import (
    ClientDeath,
    Crash,
    Delay,
    FaultSpec,
    Loss,
    MdsRestart,
)
from repro.faults.tracking import FaultTracker

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.fs.redbud import RedbudCluster
    from repro.net.link import Link


#: The :class:`FaultStats` counter each windowed fault kind bumps when
#: its window opens (client partitions count their drops instead).
_WINDOW_COUNTERS = {
    "loss_burst": "loss_bursts",
    "delay_burst": "delay_bursts",
    "shard_partition": "shard_partitions",
}


@dataclass
class FaultStats:
    """Shared counters across all fault sources of one injector."""

    messages_dropped: int = 0
    messages_delayed: int = 0
    partition_drops: int = 0
    mds_restarts: int = 0
    client_deaths: int = 0
    shard_partitions: int = 0
    loss_bursts: int = 0
    delay_bursts: int = 0

    @property
    def total_injected(self) -> int:
        """Every individual fault event injected into the run."""
        return (
            self.messages_dropped
            + self.messages_delayed
            + self.partition_drops
            + self.mds_restarts
            + self.client_deaths
            + self.shard_partitions
            + self.loss_bursts
            + self.delay_bursts
        )


@dataclass
class LinkFaults:
    """Per-link fault model consulted by :meth:`repro.net.link.Link.send`.

    ``verdict`` returns ``(dropped, extra_delay)``.  Partition windows
    drop unconditionally (no RNG draw, so messages outside the window
    see the same draw sequence whether or not a partition is configured
    elsewhere in time); otherwise one draw decides loss and -- for
    surviving messages -- one more decides delay.
    """

    rng: _t.Any
    loss: float = 0.0
    delay_prob: float = 0.0
    delay_max: float = 0.0
    #: Partition windows [(start, end), ...] during which every message
    #: on this link is dropped.
    windows: _t.List[_t.Tuple[float, float]] = field(default_factory=list)
    #: Loss bursts [(start, end, prob), ...]: inside the window the
    #: per-message drop probability is raised to ``prob``.  Draws happen
    #: only while an effective rate is positive, so a burst perturbs
    #: draw sequences inside its own window only.
    loss_bursts: _t.List[_t.Tuple[float, float, float]] = field(
        default_factory=list
    )
    #: Delay bursts [(start, end, prob, max_delay), ...].
    delay_bursts: _t.List[_t.Tuple[float, float, float, float]] = field(
        default_factory=list
    )
    stats: _t.Optional[FaultStats] = None
    # Forward-scan cursors over the (sorted, per-scope non-overlapping)
    # window lists.  ``verdict`` is called in send order, so virtual time
    # only advances; skipping expired entries once keeps per-message cost
    # O(1) even for soak schedules with thousands of windows.  Pure
    # bookkeeping: the same entries match, so draws are unchanged.
    _win_i: int = field(default=0, init=False, repr=False)
    _loss_i: int = field(default=0, init=False, repr=False)
    _delay_i: int = field(default=0, init=False, repr=False)

    def seal(self) -> None:
        """Sort the window lists once installation is complete."""
        self.windows.sort()
        self.loss_bursts.sort()
        self.delay_bursts.sort()

    def verdict(self, link: "Link") -> _t.Tuple[bool, float]:
        now = link.env.now
        wins = self.windows
        while self._win_i < len(wins) and wins[self._win_i][1] <= now:
            self._win_i += 1
        if self._win_i < len(wins) and wins[self._win_i][0] <= now:
            if self.stats is not None:
                self.stats.partition_drops += 1
            self._record(link, "partition_drop")
            return True, 0.0
        loss = self.loss
        bursts = self.loss_bursts
        while self._loss_i < len(bursts) and bursts[self._loss_i][1] <= now:
            self._loss_i += 1
        if self._loss_i < len(bursts) and bursts[self._loss_i][0] <= now:
            prob = bursts[self._loss_i][2]
            if prob > loss:
                loss = prob
        if loss > 0.0 and self.rng.random() < loss:
            if self.stats is not None:
                self.stats.messages_dropped += 1
            self._record(link, "message_drop")
            return True, 0.0
        delay_prob, delay_max = self.delay_prob, self.delay_max
        bursts = self.delay_bursts
        while (
            self._delay_i < len(bursts) and bursts[self._delay_i][1] <= now
        ):
            self._delay_i += 1
        if self._delay_i < len(bursts) and bursts[self._delay_i][0] <= now:
            _, _, prob, max_delay = bursts[self._delay_i]
            if prob > delay_prob:
                delay_prob, delay_max = prob, max_delay
        if delay_prob > 0.0 and self.rng.random() < delay_prob:
            extra = self.rng.uniform(0.0, delay_max)
            if self.stats is not None:
                self.stats.messages_delayed += 1
            self._record(link, "message_delay", extra=extra)
            return False, extra
        return False, 0.0

    def _record(self, link: "Link", what: str, **args: _t.Any) -> None:
        obs = link.env.obs
        if obs is None:
            return
        obs.tracer.instant(
            what, "fault", node=link.name, actor="net", **args
        )
        obs.registry.counter(f"faults.{what}").inc()


class FaultInjector:
    """Installs a fault schedule on a Redbud cluster.

    Requires the cluster's clients to have an RPC retry policy when the
    spec can drop or stall messages -- without one, the first lost RPC
    parks its caller forever.
    """

    def __init__(self, cluster: "RedbudCluster", spec: FaultSpec) -> None:
        self.cluster = cluster
        self.spec = spec
        self.stats = FaultStats()
        self._obs = cluster.obs
        #: The live fault registry (repro.faults.tracking): every fault
        #: this injector arms is registered on begin and stamped on
        #: heal, so oracles can ask what was biting when without a
        #: trace.  Always on -- it is pure bookkeeping.
        self.tracker = FaultTracker()
        env = cluster.env

        needs_retry = any(
            not isinstance(c, (ClientDeath, Crash)) for c in spec.clauses()
        )
        if needs_retry and any(
            client.rpc.retry is None for client in cluster.clients
        ):
            raise ValueError(
                "fault spec can lose or stall RPCs but the cluster has no "
                "retry policy; build it with ClusterConfig(retry=...)"
            )

        # Per-direction link fault models, each on its own RNG stream.
        rng_root = cluster.root_rng
        self._links: _t.List["Link"] = []
        self._per_client: _t.Dict[int, _t.List[LinkFaults]] = {}
        for cid, (uplink, downlink) in enumerate(
            zip(cluster.uplinks, cluster.downlinks)
        ):
            models = []
            for link in (uplink, downlink):
                model = LinkFaults(
                    rng=rng_root.stream("faults", link.name),
                    loss=spec.loss,
                    delay_prob=spec.delay_prob,
                    delay_max=spec.delay_max,
                    loss_bursts=[
                        (b.start, b.end, b.prob) for b in spec.loss_bursts
                    ],
                    delay_bursts=[
                        (b.start, b.end, b.prob, b.max_delay)
                        for b in spec.delay_bursts
                    ],
                    stats=self.stats,
                )
                link.faults = model
                self._links.append(link)
                models.append(model)
            self._per_client[cid] = models

        # Scalar background loss/delay run until stop(); registered as
        # open-ended net-scoped faults so they excuse for the whole run.
        self._scalar_records = [
            self.tracker.begin(c.kind, c.scope, env.now, permanent=True)
            for c in spec.clauses()
            if isinstance(c, (Loss, Delay))
        ]
        for burst in spec.loss_bursts:
            env.process(
                self._window(burst), name=f"fault-loss-burst-{burst.start}"
            )
        for burst in spec.delay_bursts:
            env.process(
                self._window(burst), name=f"fault-delay-burst-{burst.start}"
            )

        for partition in spec.partitions:
            if partition.client_id not in self._per_client:
                raise ValueError(
                    f"partition names client {partition.client_id}, but the "
                    f"cluster has {len(cluster.clients)} clients"
                )
            for model in self._per_client[partition.client_id]:
                model.windows.append((partition.start, partition.end))
            env.process(
                self._window(partition, client=partition.client_id),
                name=f"fault-partition-{partition.client_id}",
            )
        for link in self._links:
            link.faults.seal()

        num_shards = cluster.metadata.num_shards
        for restart in spec.mds_restarts:
            if restart.shard is not None and restart.shard >= num_shards:
                raise ValueError(
                    f"mds_restart names shard {restart.shard}, but the "
                    f"cluster has {num_shards} metadata shard(s)"
                )
            env.process(
                self._mds_restart(restart),
                name=f"fault-mds-restart-{restart.at}",
            )

        for sp in spec.shard_partitions:
            if sp.shard >= num_shards:
                raise ValueError(
                    f"shard_partition names shard {sp.shard}, but the "
                    f"cluster has {num_shards} metadata shard(s)"
                )
            cluster.ports[sp.shard].partition_windows.append(
                (sp.start, sp.end)
            )
            env.process(
                self._window(sp, shard=sp.shard),
                name=f"fault-shard-partition-{sp.shard}",
            )

        for death in spec.client_deaths:
            if death.client_id >= len(cluster.clients):
                raise ValueError(
                    f"client_death names client {death.client_id}, but the "
                    f"cluster has {len(cluster.clients)} clients"
                )
            env.process(
                self._client_death(death),
                name=f"fault-client-death-{death.client_id}",
            )

        # Injection counters as pull gauges so soak/SLO timelines can
        # plot fault rates alongside slo.* tracks.  The ``faults.<name>``
        # namespace already holds per-event counters, so the summary
        # lives under ``faults.injector.*``.
        if self._obs is not None:
            for key in self.summary():
                self._obs.registry.gauge(
                    f"faults.injector.{key}",
                    lambda k=key: self.summary()[k],
                )

    # -- timed fault processes ---------------------------------------------

    def _window(self, fault: _t.Any, **where: _t.Any) -> _t.Generator:
        """Track a windowed fault (loss/delay burst, client or shard
        partition) from its start to its end.  The drops and delays
        themselves are counted where messages hit the window: by the
        link models, or by the cut shard's port."""
        env = self.cluster.env
        yield env.timeout(max(0.0, fault.start - env.now))
        counter = _WINDOW_COUNTERS.get(fault.kind)
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        record = self.tracker.begin(
            fault.kind, fault.scope, env.now, heal_at=fault.end
        )
        self._instant(f"{fault.kind}_start", **where, until=fault.end)
        yield env.timeout(max(0.0, fault.end - env.now))
        self.tracker.heal(record, env.now)
        self._instant(f"{fault.kind}_end", **where)

    def _mds_restart(self, restart: MdsRestart) -> _t.Generator:
        env = self.cluster.env
        yield env.timeout(max(0.0, restart.at - env.now))
        self.stats.mds_restarts += 1
        record = self.tracker.begin(
            restart.kind, restart.scope, env.now,
            heal_at=env.now + restart.downtime,
        )
        # The server emits point instants (mds_crash/mds_restart); this
        # ranged marker carries ``until`` so the SLO timeline can excuse
        # the whole downtime window (tracked nemesis, ROADMAP 4b).
        self._instant(
            "mds_restart_begin",
            shard=restart.shard,
            until=env.now + restart.downtime,
        )
        self.cluster.metadata.crash(shard=restart.shard)
        yield env.timeout(restart.downtime)
        self.cluster.metadata.restart(shard=restart.shard)
        self.tracker.heal(record, env.now)

    def _client_death(self, death: ClientDeath) -> _t.Generator:
        env = self.cluster.env
        yield env.timeout(max(0.0, death.at - env.now))
        # A death during workload setup would park the victim's setup
        # process and hang the run harness's all-clients setup barrier
        # forever, so deaths are deferred until setup has completed.
        while not getattr(self.cluster, "setup_complete", True):
            yield env.timeout(0.01)
        self.stats.client_deaths += 1
        # Open-ended: the client never comes back.  The record stays
        # active so violations scoped to this client remain excusable
        # (soak heals it once the lease GC has reclaimed the corpse).
        self.tracker.begin(death.kind, death.scope, env.now, permanent=True)
        self.cluster.clients[death.client_id].die()

    def _instant(self, name: str, **args: _t.Any) -> None:
        if self._obs is None:
            return
        self._obs.tracer.instant(
            name, "fault", node="injector", actor="injector", **args
        )
        self._obs.registry.counter(f"faults.{name}").inc()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Stop injecting message-level faults (post-schedule settling).

        Detaches the link fault models so retries succeed and the system
        can drain; already-scheduled timed faults still fire.
        """
        for link in self._links:
            link.faults = None
        for record in self._scalar_records:
            self.tracker.heal(record, self.cluster.env.now)

    def summary(self) -> _t.Dict[str, int]:
        return {
            "messages_dropped": self.stats.messages_dropped,
            "messages_delayed": self.stats.messages_delayed,
            "partition_drops": self.stats.partition_drops,
            "mds_restarts": self.stats.mds_restarts,
            "client_deaths": self.stats.client_deaths,
            "shard_partitions": self.stats.shard_partitions,
            "loss_bursts": self.stats.loss_bursts,
            "delay_bursts": self.stats.delay_bursts,
            "shard_partition_drops": sum(
                port.partition_drops for port in self.cluster.ports
            ),
            "total_injected": self.stats.total_injected,
        }
