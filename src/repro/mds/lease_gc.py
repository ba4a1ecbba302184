"""Online orphan garbage collection with client leases.

§I of the paper notes that orphan data (allocated space whose metadata
commit never arrived) "can be recycled with garbage collection".  The
base reproduction performs that GC during post-crash recovery; this
module implements the *online* version a production MDS needs: space
delegated or allocated to a client is covered by a lease that every RPC
from the client implicitly renews.  When a client goes silent past the
lease duration -- it crashed, or was partitioned away -- a background
collector reclaims all of its uncommitted space while the rest of the
cluster keeps running.

A reclaimed client that comes back simply sees its stale commits dropped
by the MDS's defensive commit rule (its extents are no longer in its
uncommitted set) and must re-allocate -- the same fencing story as NFSv4
delegations or pNFS layouts.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.mds.allocation import SpaceManager

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


@dataclass
class GcEvent:
    """One reclamation performed by the collector."""

    time: float
    client_id: int
    bytes_reclaimed: int


@dataclass
class LeaseTable:
    """Last-activity tracking per client."""

    last_seen: _t.Dict[int, float] = field(default_factory=dict)

    def renew(self, client_id: int, now: float) -> None:
        self.last_seen[client_id] = now

    def expired(
        self, now: float, lease_duration: float
    ) -> _t.List[int]:
        return [
            client_id
            for client_id, seen in self.last_seen.items()
            if now - seen > lease_duration
        ]


class LeaseGarbageCollector:
    """Background MDS process reclaiming silent clients' orphan space.

    Parameters
    ----------
    env:
        Simulation environment.
    space:
        The space manager whose uncommitted tracking is authoritative.
    lease_duration:
        Seconds of silence after which a client's lease is considered
        expired.
    scan_interval:
        How often the collector scans for expired leases.
    """

    def __init__(
        self,
        env: "Effects",
        space: SpaceManager,
        lease_duration: float = 30.0,
        scan_interval: float = 5.0,
    ) -> None:
        if lease_duration <= 0 or scan_interval <= 0:
            raise ValueError("lease_duration and scan_interval must be > 0")
        self.env = env
        self.space = space
        self.lease_duration = lease_duration
        self.scan_interval = scan_interval
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self.leases = LeaseTable()
        self.events: _t.List[GcEvent] = []
        self.bytes_reclaimed_total = 0
        #: Called with the reclaimed client's id after each reclamation;
        #: the cluster wires this to :meth:`DiskArray.fence` so a
        #: reclaimed-but-alive client's in-flight data writes cannot land
        #: on blocks that may already be re-allocated (DESIGN §8).
        self.on_reclaim: _t.Optional[_t.Callable[[int], None]] = None
        #: Called when a *fenced* client is next heard from.  Real
        #: protocols make a fenced client re-establish its state (a new
        #: NFSv4 client id / layout stateid) before issuing new writes;
        #: the simulation collapses that handshake into this callback,
        #: which re-stamps the client's write generation.  Writes issued
        #: before re-admission stay behind the fence.
        self.on_readmit: _t.Optional[_t.Callable[[int], None]] = None
        self._fenced: _t.Set[int] = set()
        #: True while the MDS is crashed: a dead MDS collects nothing.
        self.paused = False
        self._process = env.process(self._run(), name="mds-lease-gc")

    def renew(self, client_id: int) -> None:
        """Record activity from ``client_id`` (called per RPC)."""
        self.leases.renew(client_id, self.env.now)
        if self.obs is not None:
            self.obs.registry.counter("mds.lease_renewals").inc()
        if client_id in self._fenced:
            self._fenced.discard(client_id)
            if self.on_readmit is not None:
                self.on_readmit(client_id)

    def pause(self) -> None:
        """Suspend collection (MDS crash)."""
        self.paused = True

    def resume(self) -> None:
        """Restart collection after an MDS restart with a lease grace.

        All known leases are renewed to *now*, mirroring the NFSv4 grace
        period: clients could not renew while the server was down, so
        none may be declared dead until a full lease duration has passed
        after the restart.  Genuinely dead clients simply stay silent and
        expire again.
        """
        self.paused = False
        now = self.env.now
        for client_id in self.leases.last_seen:
            self.leases.renew(client_id, now)

    def _run(self) -> _t.Generator:
        while True:
            yield self.env.timeout(self.scan_interval)
            self.collect()

    def collect(self) -> int:
        """One scan: reclaim every expired client's orphan space."""
        if self.paused:
            return 0
        reclaimed_now = 0
        for client_id in self.leases.expired(
            self.env.now, self.lease_duration
        ):
            orphan_bytes = self.space.uncommitted_bytes(client_id)
            if orphan_bytes == 0:
                continue
            reclaimed = self.space.reclaim_uncommitted(client_id)
            reclaimed_now += reclaimed
            self.bytes_reclaimed_total += reclaimed
            self.events.append(
                GcEvent(
                    time=self.env.now,
                    client_id=client_id,
                    bytes_reclaimed=reclaimed,
                )
            )
            if self.obs is not None:
                self.obs.tracer.instant(
                    "lease_reclaim", "mds", node="mds",
                    actor="mds-lease-gc",
                    client=client_id, bytes=reclaimed,
                )
                self.obs.registry.counter("mds.lease_reclaims").inc()
            if self.on_reclaim is not None:
                self.on_reclaim(client_id)
                self._fenced.add(client_id)
        return reclaimed_now
