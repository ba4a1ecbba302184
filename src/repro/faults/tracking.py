"""Live fault registry shared by the SLO layer and the soak harness.

PR 6's tail-latency layer derived "which windows was the nemesis
biting?" by scanning the tracer for ``cat="fault"`` events inside
``Timeline.build``.  That logic is generalized here into one source of
truth -- a :class:`FaultTracker` holding :class:`FaultRecord` entries
(id, kind, scope, start, heal time) -- which both consumers share:

- the SLO timeline builds a tracker from a recorded trace
  (:meth:`FaultTracker.from_tracer`) and asks it for per-window fault
  annotations (:meth:`FaultTracker.window_annotations`), reproducing
  the PR 6 excusal semantics exactly;
- the soak harness (:mod:`repro.check.soak`) maintains a tracker *live*
  -- the injector registers every fault as it arms and heals -- so the
  oracles can ask "is anything active right now / was anything active
  in this window?" without a trace (long soaks run untraced to keep
  memory bounded over tens of virtual hours).

A record's **scope** names its blast radius: ``("net", "*")`` for
link-level loss/delay (every RPC may be affected), ``("client", cid)``
for partitions and deaths, ``("shard", k)`` / ``("mds", "*")`` for
metadata faults.  The wildcard ``"*"`` matches any instance of its
kind, and the cluster-wide scope ``("*", "*")`` overlaps everything --
the conservative default for oracle violations that cannot be
attributed more precisely.

Everything here is pure bookkeeping: no events scheduled, no RNG
consumed (the zero-perturbation contract of :mod:`repro.obs` holds for
trace-derived trackers, and determinism holds for live ones).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = ["FaultRecord", "FaultTracker", "Scope", "scopes_overlap"]

#: ``(domain, instance)`` -- e.g. ``("client", 3)``, ``("shard", 0)``,
#: ``("net", "*")``.  ``"*"`` wildcards one side; ``("*", "*")`` is
#: cluster-wide.
Scope = _t.Tuple[str, _t.Union[int, str]]

CLUSTER_WIDE: Scope = ("*", "*")


def scopes_overlap(a: Scope, b: Scope) -> bool:
    """True when two blast radii intersect.

    Domains must match unless either is the cluster-wide wildcard;
    instances must match unless either is ``"*"``.
    """
    if a[0] == "*" or b[0] == "*":
        return True
    if a[0] != b[0]:
        return False
    return a[1] == "*" or b[1] == "*" or a[1] == b[1]


@dataclass
class FaultRecord:
    """One fault's lifetime in the registry."""

    fault_id: int
    #: Fault family / event name (``partition``, ``mds_restart``...).
    kind: str
    scope: Scope
    start: float
    #: Scheduled heal time, when known at injection (partition end, MDS
    #: restart, disk readmit).  ``None`` for point faults and for
    #: permanent ones (an un-readmitted disk loss, a client death).
    heal_at: _t.Optional[float] = None
    #: Actual heal time, stamped by :meth:`FaultTracker.heal`.  For
    #: trace-derived records this equals ``heal_at``.
    healed_at: _t.Optional[float] = None
    #: Distinguishes a no-``heal_at`` record that stays active forever
    #: (client death, un-readmitted disk loss) from a point event that
    #: flashes and is gone (an MDS crash instant).
    permanent: bool = False

    @property
    def point(self) -> bool:
        """A zero-width fault event (its window is still annotated)."""
        return (
            self.heal_at is None
            and self.healed_at is None
            and not self.permanent
        )

    @property
    def end(self) -> _t.Optional[float]:
        """When the fault stopped biting (``None`` while live/permanent)."""
        if self.healed_at is not None:
            return self.healed_at
        return self.heal_at

    def active_at(self, time: float) -> bool:
        """Whether the fault is live at ``time`` (point faults are not)."""
        if time < self.start:
            return False
        end = self.end
        if end is None:
            # Point events flash and are gone; open-ended faults
            # (client death, unhealed disk loss) stay active forever.
            return not self.point
        return time < end

    def overlaps_window(self, lo: float, hi: float) -> bool:
        """Whether the fault was live anywhere in ``[lo, hi)``."""
        if self.point:
            return lo <= self.start < hi
        end = self.end
        return self.start < hi and (end is None or end > lo)

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "id": self.fault_id,
            "kind": self.kind,
            "scope": list(self.scope),
            "start": self.start,
            "heal_at": self.heal_at,
            "healed_at": self.healed_at,
            "permanent": self.permanent,
        }


class FaultTracker:
    """The live registry of injected faults (YDB-style tracked nemesis)."""

    def __init__(self) -> None:
        self.records: _t.List[FaultRecord] = []
        self._next_id = 0

    # -- registration (injector / nemesis side) --------------------------

    def begin(
        self,
        kind: str,
        scope: Scope,
        start: float,
        heal_at: _t.Optional[float] = None,
        permanent: bool = False,
    ) -> FaultRecord:
        """Register a fault going live; returns its record for healing."""
        record = FaultRecord(
            fault_id=self._next_id,
            kind=kind,
            scope=scope,
            start=start,
            heal_at=heal_at,
            permanent=permanent,
        )
        self._next_id += 1
        self.records.append(record)
        return record

    def heal(self, record: FaultRecord, at: float) -> None:
        """Stamp the actual heal time (idempotent)."""
        if record.healed_at is None:
            record.healed_at = at

    # -- queries (oracle side) --------------------------------------------

    def active(self, time: float) -> _t.List[FaultRecord]:
        return [r for r in self.records if r.active_at(time)]

    def active_during(self, lo: float, hi: float) -> _t.List[FaultRecord]:
        return [r for r in self.records if r.overlaps_window(lo, hi)]

    def excusers(
        self,
        scope: Scope,
        lo: float,
        hi: float,
        grace: float = 0.0,
    ) -> _t.List[FaultRecord]:
        """Faults whose blast radius excuses a violation on ``scope``
        observed during ``[lo, hi)``.

        ``grace`` extends each fault's excusal window past its heal time
        -- the re-convergence allowance the liveness oracles grant.
        """
        out = []
        for r in self.records:
            if not scopes_overlap(r.scope, scope):
                continue
            if r.point:
                if lo <= r.start < hi + grace and r.start < hi:
                    out.append(r)
                continue
            end = r.end
            if r.start < hi and (end is None or end + grace > lo):
                out.append(r)
        return out

    def window_annotations(
        self, width: float, cap_index: _t.Optional[int] = None
    ) -> _t.Dict[int, _t.Set[str]]:
        """Per-window fault names, PR 6 semantics.

        A point fault marks its own window; a ranged fault marks every
        window from its start through its end, clamped to ``cap_index``
        (the SLO timeline caps at the last data window so a trailing
        heal never extends the timeline).
        """
        out: _t.Dict[int, _t.Set[str]] = {}
        for r in self.records:
            wi = int(r.start / width)
            end = r.end
            if end is None or end <= r.start:
                out.setdefault(wi, set()).add(r.kind)
                continue
            last = int(end / width)
            if cap_index is not None:
                last = min(last, cap_index)
            for k in range(wi, max(last, wi) + 1):
                out.setdefault(k, set()).add(r.kind)
        return out

    # -- construction from a recorded trace -------------------------------

    @classmethod
    def from_tracer(cls, tracer: "Tracer") -> "FaultTracker":
        """Rebuild the registry from ``cat="fault"`` trace events.

        Mirrors the scan :class:`repro.obs.slo.Timeline` performed
        before this module existed: every fault event becomes a record;
        an event carrying ``until`` in its args (partition windows, MDS
        downtime, disk rebuild windows) becomes a ranged fault healed at
        that instant, anything else a point fault.
        """
        tracker = cls()
        for event in tracer.events:
            if event.cat != "fault":
                continue
            until = event.args.get("until")
            scope = _scope_from_args(event.name, event.args)
            if until is not None and until > event.time:
                record = tracker.begin(
                    event.name, scope, event.time, heal_at=until
                )
                record.healed_at = until
            else:
                tracker.begin(event.name, scope, event.time)
        return tracker


def _scope_from_args(name: str, args: _t.Mapping[str, _t.Any]) -> Scope:
    """Best-effort blast radius from a fault event's arguments."""
    if "client" in args and args["client"] is not None:
        return ("client", int(args["client"]))
    if "shard" in args and args["shard"] is not None:
        return ("shard", int(args["shard"]))
    if name.startswith("mds_"):
        return ("mds", "*")
    if name.startswith(("message_", "partition_drop")):
        return ("net", "*")
    return CLUSTER_WIDE
