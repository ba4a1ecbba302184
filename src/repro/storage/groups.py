"""Replicated storage groups: mirror and erasure arrangements.

A *storage group* puts ``n`` replica members behind the shared disk
array.  Every extent that becomes stable on the primary fans out to all
live members (full-mirror semantics for ``mirror3``; for ``block4-2``
each member durably holds its shard of the stripe, and a logical range
is recoverable exactly when at least ``k = 4`` members still hold it --
the MDS property of the Reed-Solomon code in
:mod:`repro.storage.erasure`).  Either way the quorum rule is uniform:

    a logical range survives iff >= ``data`` members that hold it are
    still alive,

with ``data = 1`` for mirrors and ``data = 4`` for ``block4-2``.

Members die via the ``disk_loss=<member>@T`` fault clause: the member's
durable set is destroyed outright (this is a *disk* loss, not a network
partition).  An optional rebuild window readmits the member, which
re-silvers by copying the group's recoverable set -- the same routine
post-crash repair uses to bring survivors back into agreement, which is
what the replica-divergence oracle in :mod:`repro.check.oracle` checks.

Replication costs an ack delay per stable write (the slowest live
secondary's ack), drawn from the group's own named RNG stream so an
unreplicated cluster's draw sequences are untouched.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.util.intervals import IntervalSet

if _t.TYPE_CHECKING:
    from repro.core.effects import Effects

__all__ = [
    "Arrangement",
    "ARRANGEMENTS",
    "arrangement_named",
    "ReplicaMember",
    "StorageGroup",
]


@dataclass(frozen=True)
class Arrangement:
    """Geometry and fault budget of one replication scheme."""

    name: str
    #: Total members in the group.
    size: int
    #: Members that must hold a range for it to be recoverable
    #: (mirror: 1; block erasure: the data-shard count k).
    data: int
    #: Simultaneous member losses the group survives by design.
    tolerates: int

    @property
    def parity(self) -> int:
        return self.size - self.data


#: The supported arrangements, YDB-style: a 3-way mirror and a 4+2
#: block erasure group.  ``none`` is the degenerate single-copy case
#: (no group is constructed for it; it exists so config validation and
#: the CLI have one source of truth for the axis values).
ARRANGEMENTS: _t.Dict[str, Arrangement] = {
    "none": Arrangement("none", size=1, data=1, tolerates=0),
    "mirror3": Arrangement("mirror3", size=3, data=1, tolerates=2),
    "block4-2": Arrangement("block4-2", size=6, data=4, tolerates=2),
}


def arrangement_named(name: str) -> Arrangement:
    try:
        return ARRANGEMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown replication arrangement {name!r}; choose from "
            f"{sorted(ARRANGEMENTS)}"
        ) from None


@dataclass
class ReplicaMember:
    """One member disk of a storage group."""

    member_id: int
    alive: bool = True
    #: Logical volume ranges this member durably holds.
    durable: IntervalSet = field(default_factory=IntervalSet)
    bytes_written: int = 0
    losses: int = 0


class StorageGroup:
    """A replicated group fanning stable extent writes to its members.

    The simulator models replication at extent granularity: members
    track *which logical ranges* they hold (an :class:`IntervalSet`
    each), not shard bytes.  The byte-level stripe math lives in
    :mod:`repro.storage.erasure` and is exercised by the property
    tests; :meth:`stripe_shares` exposes it for block arrangements.
    """

    #: Secondary ack latency bounds (seconds of virtual time).  Small
    #: against disk service times: replica acks overlap the commit
    #: pipeline rather than dominating it.
    ACK_MIN = 0.00008
    ACK_MAX = 0.00040

    def __init__(
        self,
        env: "Effects",
        arrangement: Arrangement,
        rng,
    ) -> None:
        if arrangement.size < 2:
            raise ValueError(
                f"arrangement {arrangement.name!r} has nothing to "
                f"replicate to (size {arrangement.size})"
            )
        self.env = env
        self.arrangement = arrangement
        self.rng = rng
        self.members = [
            ReplicaMember(member_id=i) for i in range(arrangement.size)
        ]
        # Counters surfaced as storage.group.* gauges.
        self.replicated_bytes = 0
        self.resilvered_bytes = 0
        self.degraded_writes = 0
        self.losses = 0
        self.readmissions = 0
        #: Virtual time the most recent re-silver completed (None until
        #: the first readmission).  Liveness oracles compare this against
        #: the triggering disk_loss heal to confirm the rebuild finished.
        self.last_resilver_at: _t.Optional[float] = None

    # -- geometry ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.arrangement.size

    @property
    def alive_count(self) -> int:
        return sum(1 for m in self.members if m.alive)

    def stripe_shares(self, data: bytes) -> _t.List[bytes]:
        """Byte-level shares of one stripe under this arrangement."""
        from repro.storage import erasure

        k, m = self.arrangement.data, self.arrangement.parity
        if k == 1:
            return [bytes(data)] * self.arrangement.size
        return erasure.encode_stripe(data, k=k, m=m)

    # -- the write fan-out ------------------------------------------------

    def replicate(self, start: int, end: int) -> float:
        """Record a stable primary write on every live member.

        Returns the extra ack delay the disk array must wait before
        completing the request: the slowest live secondary's ack.
        """
        length = end - start
        secondaries = 0
        for member in self.members:
            if not member.alive:
                continue
            member.durable.add(start, end)
            member.bytes_written += length
            if member.member_id != 0:
                secondaries += 1
        self.replicated_bytes += length * max(1, self.alive_count)
        if self.alive_count < self.size:
            self.degraded_writes += 1
        if secondaries == 0:
            return 0.0
        return max(
            self.rng.uniform(self.ACK_MIN, self.ACK_MAX)
            for _ in range(secondaries)
        )

    # -- failure and repair ----------------------------------------------

    def lose(self, member_id: int) -> None:
        """Destroy one member's disk: its replica is gone, not paused."""
        member = self.members[member_id]
        if not member.alive:
            return
        member.alive = False
        member.durable.clear()
        member.losses += 1
        self.losses += 1
        if self.alive_count < self.arrangement.data:
            raise RuntimeError(
                f"group {self.arrangement.name}: {self.losses} losses "
                f"exceed the fault budget (data quorum "
                f"{self.arrangement.data} of {self.size})"
            )

    def readmit(self, member_id: int) -> int:
        """Bring a lost member back empty and re-silver it.

        Returns the number of bytes copied during the re-silver.
        """
        member = self.members[member_id]
        if member.alive:
            return 0
        member.alive = True
        member.durable = IntervalSet()
        copied = self._resilver(member)
        self.readmissions += 1
        self.last_resilver_at = self.env.now
        return copied

    def _resilver(self, member: ReplicaMember) -> int:
        recoverable = self.recoverable_set(exclude=member.member_id)
        copied = 0
        for start, end in recoverable:
            member.durable.add(start, end)
            copied += end - start
        self.resilvered_bytes += copied
        return copied

    def repair(self) -> int:
        """Re-silver every live member up to the recoverable set.

        Post-recovery convergence: after this, all live members agree
        (the replica-divergence invariant).  Returns bytes copied.
        """
        recoverable = self.recoverable_set()
        copied = 0
        for member in self.members:
            if not member.alive:
                continue
            for start, end in recoverable:
                if not member.durable.contains(start, end):
                    missing = end - start - member.durable.intersection(
                        start, end
                    ).total()
                    copied += missing
                    member.durable.add(start, end)
        self.resilvered_bytes += copied
        return copied

    # -- quorum math ------------------------------------------------------

    def recoverable_set(
        self, exclude: _t.Optional[int] = None
    ) -> IntervalSet:
        """Ranges held by at least ``data`` live members.

        ``exclude`` drops one member from consideration (used while
        re-silvering that member from the others).
        """
        holders = [
            m.durable
            for m in self.members
            if m.alive and m.member_id != exclude
        ]
        need = self.arrangement.data
        out = IntervalSet()
        if len(holders) < need:
            return out
        points = sorted(
            {p for ds in holders for span in ds for p in span}
        )
        for a, b in zip(points, points[1:]):
            count = sum(1 for ds in holders if ds.contains(a, b))
            if count >= need:
                out.add(a, b)
        return out

    def divergent_members(self) -> _t.List[_t.Tuple[int, int]]:
        """Pairs of live members whose durable sets disagree."""
        live = [m for m in self.members if m.alive]
        return [
            (a.member_id, b.member_id)
            for i, a in enumerate(live)
            for b in live[i + 1:]
            if a.durable != b.durable
        ]

    def summary(self) -> _t.Dict[str, _t.Any]:
        return {
            "arrangement": self.arrangement.name,
            "members": self.size,
            "alive": self.alive_count,
            "losses": self.losses,
            "readmissions": self.readmissions,
            "replicated_bytes": self.replicated_bytes,
            "resilvered_bytes": self.resilvered_bytes,
            "degraded_writes": self.degraded_writes,
        }
