"""Adaptive RPC compound-degree control (§IV.B).

"The compound degree changes periodically with the knowledge of the
network traffic in the cluster and the workload on the MDS.  The compound
degree increases as the network is congested or the MDS is busy enough,
so as to reduce the RPC requests."

A client cannot read the MDS's queue directly; like real systems it infers
load from what it can observe: its own uplink backlog (local NIC queue)
and the round-trip latency of recent commit RPCs (an EWMA compared
against the uncongested baseline).  The controller re-evaluates every
``period`` seconds and moves the degree one step at a time within
``[1, max_degree]``.

A ``fixed_degree`` short-circuits adaptation -- used by the Fig. 7 sweep,
which compares fixed degrees 1 / 3 / 6.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.net.link import Link

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


@dataclass(frozen=True)
class CompoundPolicy:
    """Tunables for the adaptive compound controller."""

    max_degree: int = 8
    period: float = 0.25
    #: Uplink backlog (seconds of queued serialisation) deemed congested.
    backlog_high: float = 0.0005
    #: RPC latency ratio over baseline deemed "MDS busy".
    latency_ratio_high: float = 2.0
    #: Ratio below which the controller relaxes the degree.
    latency_ratio_low: float = 1.3
    #: EWMA smoothing for observed RPC latency.
    ewma_alpha: float = 0.2


class CompoundController:
    """Chooses how many commit ops ride in one RPC."""

    def __init__(
        self,
        env: "Effects",
        uplink: Link,
        policy: CompoundPolicy = CompoundPolicy(),
        fixed_degree: _t.Optional[int] = None,
        node: str = "",
    ) -> None:
        if fixed_degree is not None and fixed_degree <= 0:
            raise ValueError(f"fixed_degree must be positive: {fixed_degree}")
        self.env = env
        self.uplink = uplink
        self.policy = policy
        self.fixed_degree = fixed_degree
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self.node = node
        self._degree = fixed_degree if fixed_degree is not None else 1
        #: Per-destination-shard latency estimates: each metadata shard
        #: is an independent server, so its round-trip EWMA and
        #: uncongested baseline are tracked separately.  A single-MDS
        #: deployment only ever populates shard 0, making the math
        #: identical to the scalar version.
        self._latency_ewma: _t.Dict[int, float] = {}
        self._latency_baseline: _t.Dict[int, float] = {}
        self.adjustments = 0
        #: (time, degree) history for diagnostics.
        self.history: _t.List[_t.Tuple[float, int]] = []
        if fixed_degree is None:
            env.process(self._control_loop(), name="compound-controller")

    @property
    def degree(self) -> int:
        """Current compound degree (ops per commit RPC)."""
        return self._degree

    def observe_rpc_latency(self, latency: float, shard: int = 0) -> None:
        """Feed one commit round-trip into ``shard``'s load estimate."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        ewma = self._latency_ewma.get(shard)
        if ewma is None:
            self._latency_ewma[shard] = latency
            self._latency_baseline[shard] = latency
        else:
            a = self.policy.ewma_alpha
            ewma = (1 - a) * ewma + a * latency
            self._latency_ewma[shard] = ewma
            # The baseline tracks the smallest smoothed latency seen.
            self._latency_baseline[shard] = min(
                self._latency_baseline[shard], ewma
            )

    def _latency_ratio(self) -> float:
        """Worst latency inflation across shards (the busiest server)."""
        worst = 1.0
        for shard, ewma in self._latency_ewma.items():
            baseline = self._latency_baseline.get(shard)
            if not ewma or not baseline:
                continue
            worst = max(worst, ewma / baseline)
        return worst

    def _control_loop(self) -> _t.Generator:
        while True:
            yield self.env.timeout(self.policy.period)
            old = self._degree
            congested = (
                self.uplink.backlog > self.policy.backlog_high
                or self._latency_ratio() > self.policy.latency_ratio_high
            )
            relaxed = (
                self.uplink.backlog == 0.0
                and self._latency_ratio() < self.policy.latency_ratio_low
            )
            if congested and self._degree < self.policy.max_degree:
                self._degree += 1
            elif relaxed and self._degree > 1:
                self._degree -= 1
            if self._degree != old:
                self.adjustments += 1
                self.history.append((self.env.now, self._degree))
                if self.obs is not None:
                    self.obs.tracer.instant(
                        "compound_degree",
                        "daemon",
                        node=self.node,
                        actor="compound-controller",
                        degree=self._degree,
                        old=old,
                    )
                    self.obs.registry.counter("compound.adjustments").inc()
