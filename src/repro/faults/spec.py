"""Declarative fault schedules and the ``--faults`` mini-language.

A spec is a comma-separated list of clauses::

    loss=P                 drop each message with probability P (all links)
    loss=P@T0-T1           same, but only during the window [T0, T1) --
                           a *loss burst* (the tracked nemesis's bread
                           and butter; several non-overlapping bursts
                           may be given)
    delay=P:MAX            delay a fraction P of messages by an extra
                           uniform(0, MAX) seconds -- since deliveries are
                           independent timeouts, this also reorders them
    delay=P:MAX@T0-T1      the windowed *delay burst* variant
    partition=CID@T0-T1    cut client CID off (both directions) during
                           the virtual-time window [T0, T1)
    mds_restart@T:D        crash the MDS at time T, restart it D seconds
                           later (inbox contents are lost)
    mds_restart@T:D:shard=K
                           same, but only metadata shard K of a sharded
                           deployment (others keep serving)
    shard_partition=K@T0-T1
                           cut metadata shard K off from every client
                           (both directions) during [T0, T1)
    client_death=CID@T     kill client CID at time T (volatile state and
                           queued I/O lost; lease GC reclaims its space)
    crash@T                whole-cluster crash at time T -- the run is cut
                           short, recovery runs, and the consistency
                           invariants are checked (handled by the harness,
                           not the injector)

Example: ``loss=0.05,delay=0.1:0.004,mds_restart@0.5:0.2,client_death=2@0.8``.

Multiple ``partition``/``mds_restart``/``client_death`` and windowed
burst clauses may be given; at most one ``crash``, and at most one
*scalar* ``loss`` / ``delay`` each (a duplicate scalar clause is a
parse error, not a silent overwrite).  Two windowed clauses with
the same scope (the same client's partitions, the same shard's cuts,
two global loss bursts) must not overlap in time, and a dead client
cannot die twice -- both are spec validation errors, because a shrunk
or nemesis-generated schedule carrying them would be ambiguous to
replay.  Unknown clause keys are parse errors carrying the offending
token, so a typo like ``client_deth=0@5`` cannot silently arm
nothing.  An empty string parses to the empty spec, which injects
nothing.
Each clause is a frozen dataclass (:class:`Clause`) and the only home
of its own text (``str``), time rebase (``shifted``) and tracker
identity (``kind``, ``scope``).  ``FaultSpec.serialize`` joins the
clauses' texts such that ``parse(spec.serialize()) == spec``, and
``FaultSpec.of`` assembles a spec from clause objects.
"""

from __future__ import annotations

import dataclasses
import re
import typing as _t
from dataclasses import dataclass, field

from repro.faults.tracking import CLUSTER_WIDE, Scope


class Clause:
    """One atom of the mini-language; the clause dataclasses below.

    A clause owns everything the rest of the fault plane needs to know
    about it: ``str(clause)`` is its canonical text (``parse`` reads it
    back exactly), ``shifted`` rebases it in time, and ``kind`` /
    ``scope`` are the :class:`~repro.faults.tracking.FaultRecord`
    vocabulary the injector registers it under when it fires.
    """

    kind: _t.ClassVar[str]
    #: Blast radius.  Link-level clauses can hit every RPC.
    scope: _t.ClassVar[Scope] = ("net", "*")
    #: The fields holding virtual times (``shifted`` moves them).
    times: _t.ClassVar[_t.Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        if "end" in self.times and not 0 <= self.start < self.end:
            raise ValueError(
                f"bad {self.kind} window [{self.start}, {self.end})"
            )

    @property
    def lane(self) -> _t.Tuple[str, _t.Union[int, str]]:
        """Two clauses on one lane must not overlap in time."""
        return (self.kind, self.scope[1])

    def shifted(self, delta: float) -> "Clause":
        """This clause ``delta`` seconds earlier, its times rounded to
        the microsecond; rates and downtimes are unchanged."""
        return dataclasses.replace(
            self,  # type: ignore[type-var]
            **{t: round(getattr(self, t) - delta, 6) for t in self.times},
        )


@dataclass(frozen=True)
class Loss(Clause):
    """Background message loss at probability ``prob`` on every link."""

    prob: float
    kind = "loss"

    def __str__(self) -> str:
        return f"loss={self.prob!r}"


@dataclass(frozen=True)
class Delay(Clause):
    """Background delay: a fraction ``prob`` of messages receive
    uniform(0, ``max_delay``) extra seconds."""

    prob: float
    max_delay: float
    kind = "delay"

    def __str__(self) -> str:
        return f"delay={self.prob!r}:{self.max_delay!r}"


@dataclass(frozen=True)
class LossBurst(Clause):
    """Message loss at probability ``prob`` during ``[start, end)``."""

    prob: float
    start: float
    end: float
    kind = "loss_burst"
    times = ("start", "end")

    def __post_init__(self) -> None:
        if not 0.0 < self.prob < 1.0:
            raise ValueError(
                f"loss burst probability must be in (0, 1), got {self.prob}"
            )
        super().__post_init__()

    def __str__(self) -> str:
        return f"loss={self.prob!r}@{self.start!r}-{self.end!r}"


@dataclass(frozen=True)
class DelayBurst(Clause):
    """Extra delivery delay during ``[start, end)``: a fraction ``prob``
    of messages receive uniform(0, ``max_delay``) extra seconds."""

    prob: float
    max_delay: float
    start: float
    end: float
    kind = "delay_burst"
    times = ("start", "end")

    def __post_init__(self) -> None:
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(
                f"delay burst probability must be in (0, 1], got {self.prob}"
            )
        if self.max_delay <= 0:
            raise ValueError(
                f"delay burst needs a positive max delay, got {self.max_delay}"
            )
        super().__post_init__()

    def __str__(self) -> str:
        return (
            f"delay={self.prob!r}:{self.max_delay!r}"
            f"@{self.start!r}-{self.end!r}"
        )


@dataclass(frozen=True)
class Partition(Clause):
    """One client's network cut off during ``[start, end)``."""

    client_id: int
    start: float
    end: float
    kind = "partition"
    times = ("start", "end")

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"bad client id {self.client_id}")
        super().__post_init__()

    @property
    def scope(self) -> Scope:  # type: ignore[override]
        return ("client", self.client_id)

    def __str__(self) -> str:
        return f"partition={self.client_id}@{self.start!r}-{self.end!r}"


@dataclass(frozen=True)
class MdsRestart(Clause):
    """MDS crash at ``at``, restart ``downtime`` seconds later.

    ``shard`` narrows the crash to one metadata shard of a sharded
    deployment; ``None`` (the default, and the only legal value for a
    single-MDS cluster) crashes the whole service.
    """

    at: float
    downtime: float
    shard: _t.Optional[int] = None
    kind = "mds_restart"
    times = ("at",)

    def __post_init__(self) -> None:
        if self.at < 0 or self.downtime <= 0:
            raise ValueError(
                f"bad mds_restart at={self.at} downtime={self.downtime}"
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"bad mds_restart shard {self.shard}")

    @property
    def scope(self) -> Scope:  # type: ignore[override]
        return ("mds", "*") if self.shard is None else ("shard", self.shard)

    def __str__(self) -> str:
        suffix = "" if self.shard is None else f":shard={self.shard}"
        return f"mds_restart@{self.at!r}:{self.downtime!r}{suffix}"


@dataclass(frozen=True)
class ShardPartition(Clause):
    """Metadata shard ``shard`` cut off from all clients in [start, end)."""

    shard: int
    start: float
    end: float
    kind = "shard_partition"
    times = ("start", "end")

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"bad shard id {self.shard}")
        super().__post_init__()

    @property
    def scope(self) -> Scope:  # type: ignore[override]
        return ("shard", self.shard)

    def __str__(self) -> str:
        return f"shard_partition={self.shard}@{self.start!r}-{self.end!r}"


@dataclass(frozen=True)
class ClientDeath(Clause):
    """Client ``client_id`` dies at ``at`` and never comes back."""

    client_id: int
    at: float
    kind = "client_death"
    times = ("at",)

    def __post_init__(self) -> None:
        if self.client_id < 0 or self.at < 0:
            raise ValueError(
                f"bad client_death client={self.client_id} at={self.at}"
            )

    @property
    def scope(self) -> Scope:  # type: ignore[override]
        return ("client", self.client_id)

    @property
    def lane(self) -> _t.Tuple[str, _t.Union[int, str]]:
        """A death is a partition that never lifts: it shares the
        client's partition lane."""
        return ("partition", self.client_id)

    def __str__(self) -> str:
        return f"client_death={self.client_id}@{self.at!r}"


@dataclass(frozen=True)
class Crash(Clause):
    """Whole-cluster crash at ``at`` (enacted by the harness)."""

    at: float
    kind = "crash"
    scope = CLUSTER_WIDE
    times = ("at",)

    def __str__(self) -> str:
        return f"crash@{self.at!r}"


def _window(text: str) -> _t.Tuple[float, float]:
    # Split on the window separator only, not the "-" of a
    # scientific-notation exponent (e.g. "1e-05-0.5").
    start, end = re.split(r"(?<![eE])-", text)
    return float(start), float(end)


def _read_loss(body: str) -> Clause:
    prob, burst, window = body.partition("@")
    if burst:
        return LossBurst(float(prob), *_window(window))
    return Loss(float(prob))


def _read_delay(body: str) -> Clause:
    rates, burst, window = body.partition("@")
    prob, max_delay = rates.split(":")
    if burst:
        return DelayBurst(float(prob), float(max_delay), *_window(window))
    return Delay(float(prob), float(max_delay))


def _read_who_at(cls: _t.Any) -> _t.Callable[[str], Clause]:
    """A reader of ``ID@T0-T1`` (a window) or ``ID@T`` (an instant)."""

    def read(body: str) -> Clause:
        who, when = body.split("@")
        times = _window(when) if "end" in cls.times else (float(when),)
        return cls(int(who), *times)

    return read


def _read_mds_restart(body: str) -> Clause:
    at, downtime, *rest = body.split(":")
    if len(rest) > 1 or (rest and not rest[0].startswith("shard=")):
        raise ValueError(f"expected mds_restart@T:D[:shard=K], got {body!r}")
    shard = int(rest[0][len("shard="):]) if rest else None
    return MdsRestart(float(at), float(downtime), shard)


_READERS: _t.Dict[str, _t.Callable[[str], Clause]] = {
    "loss=": _read_loss,
    "delay=": _read_delay,
    "partition=": _read_who_at(Partition),
    "mds_restart@": _read_mds_restart,
    "shard_partition=": _read_who_at(ShardPartition),
    "client_death=": _read_who_at(ClientDeath),
    "crash@": lambda body: Crash(float(body)),
}


def _parse_clause(text: str) -> Clause:
    """One clause atom (``"partition=2@0.1-0.3"``) as its object."""
    head = re.match(r"\w+[=@]", text)
    read = _READERS.get(head.group()) if head else None
    if read is None:
        raise ValueError(f"unknown fault clause {text!r}")
    try:
        return read(text[head.end():])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed fault clause {text!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultSpec:
    """A complete fault schedule for one run."""

    #: Per-message drop probability on every link.
    loss: float = 0.0
    #: Fraction of messages receiving an extra delay.
    delay_prob: float = 0.0
    #: Upper bound of the uniform extra delay, seconds.
    delay_max: float = 0.0
    partitions: _t.Tuple[Partition, ...] = field(default_factory=tuple)
    mds_restarts: _t.Tuple[MdsRestart, ...] = field(default_factory=tuple)
    client_deaths: _t.Tuple[ClientDeath, ...] = field(default_factory=tuple)
    shard_partitions: _t.Tuple[ShardPartition, ...] = field(
        default_factory=tuple
    )
    #: Windowed loss/delay bursts (the tracked nemesis's replayable
    #: actions); they stack on top of the scalar background rates.
    loss_bursts: _t.Tuple[LossBurst, ...] = field(default_factory=tuple)
    delay_bursts: _t.Tuple[DelayBurst, ...] = field(default_factory=tuple)
    #: Whole-cluster crash time.  The injector ignores this field; the
    #: crash-schedule harness (``repro.check``) and ``repro run`` cut the
    #: run at this instant and run recovery + the consistency oracle.
    crash_at: _t.Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if not 0.0 <= self.delay_prob <= 1.0:
            raise ValueError(
                f"delay probability must be in [0, 1], got {self.delay_prob}"
            )
        if self.delay_max < 0:
            raise ValueError(f"delay_max must be >= 0, got {self.delay_max}")
        if self.delay_prob > 0 and self.delay_max <= 0:
            raise ValueError("delay clause needs a positive max delay")
        if self.crash_at is not None and self.crash_at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.crash_at}")
        self._check_scope_overlaps()

    def _check_scope_overlaps(self) -> None:
        """Reject same-scope windows that overlap, and double deaths.

        Two partition windows for the same client (or two global loss
        bursts, two cuts of the same shard...) that overlap in time are
        ambiguous: which clause a dropped message "belongs to" is
        undefined, so a shrunk schedule could not attribute the failure.
        The nemesis never generates them; hand-written specs get a
        validation error instead of silently merged behaviour.
        """
        by_scope: _t.Dict[_t.Any, _t.List[_t.Tuple[float, float]]] = {}
        for c in (
            *self.partitions, *self.shard_partitions,
            *self.loss_bursts, *self.delay_bursts,
        ):
            by_scope.setdefault(c.lane, []).append((c.start, c.end))
        for scope, spans in by_scope.items():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"duplicate scope {scope[0]}={scope[1]}: windows "
                        f"[{s0}, {e0}) and starting at {s1} overlap"
                    )
        deaths = [d.client_id for d in self.client_deaths]
        if len(set(deaths)) != len(deaths):
            dup = sorted(
                cid for cid in set(deaths) if deaths.count(cid) > 1
            )
            raise ValueError(
                f"client_death clauses name client(s) {dup} more than "
                "once (a dead client cannot die again)"
            )

    @property
    def empty(self) -> bool:
        """True when the *injector* has nothing to do.

        ``crash_at`` is deliberately excluded: the crash is enacted by the
        harness that drives the run, not by ``FaultInjector``, so a spec
        carrying only a crash still takes the unperturbed fast path.
        """
        return all(isinstance(c, Crash) for c in self.clauses())

    def clauses(self) -> _t.List[Clause]:
        """Every clause, in the order ``serialize`` writes them."""
        scalars: _t.List[Clause] = []
        if self.loss:
            scalars.append(Loss(self.loss))
        if self.delay_prob:
            scalars.append(Delay(self.delay_prob, self.delay_max))
        crash = [] if self.crash_at is None else [Crash(self.crash_at)]
        return [
            *scalars, *self.loss_bursts, *self.delay_bursts,
            *self.partitions, *self.mds_restarts, *self.client_deaths,
            *self.shard_partitions, *crash,
        ]

    @classmethod
    def of(cls, clauses: _t.Iterable[Clause]) -> "FaultSpec":
        """The spec holding exactly ``clauses``, given in any order."""
        groups: _t.Dict[type, _t.List[_t.Any]] = {}
        for clause in clauses:
            group = groups.setdefault(type(clause), [])
            if group and isinstance(clause, (Loss, Delay, Crash)):
                raise ValueError(
                    f"malformed fault clause {str(clause)!r}: duplicate "
                    f"{clause.kind} clause (at most one {clause.kind} "
                    "per spec)"
                )
            group.append(clause)
        loss, delay, crash = (
            groups.get(t, [None])[0] for t in (Loss, Delay, Crash)
        )
        return cls(
            loss=loss.prob if loss is not None else 0.0,
            delay_prob=delay.prob if delay is not None else 0.0,
            delay_max=delay.max_delay if delay is not None else 0.0,
            partitions=tuple(groups.get(Partition, ())),
            mds_restarts=tuple(groups.get(MdsRestart, ())),
            client_deaths=tuple(groups.get(ClientDeath, ())),
            shard_partitions=tuple(groups.get(ShardPartition, ())),
            loss_bursts=tuple(groups.get(LossBurst, ())),
            delay_bursts=tuple(groups.get(DelayBurst, ())),
            crash_at=crash.at if crash is not None else None,
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the ``--faults`` mini-language (see module docstring)."""
        return cls.of(
            _parse_clause(raw.strip()) for raw in text.split(",")
            if raw.strip()
        )

    def serialize(self) -> str:
        """Render back into the ``--faults`` mini-language.

        ``FaultSpec.parse(spec.serialize()) == spec`` for every spec;
        floats are emitted with ``repr`` so round-trips are exact.
        """
        return ",".join(map(str, self.clauses()))

    def shifted(self, delta: float) -> "FaultSpec":
        """Every clause ``delta`` seconds earlier (``Clause.shifted``)."""
        return FaultSpec.of(c.shifted(delta) for c in self.clauses())

    @classmethod
    def random(
        cls,
        rng: _t.Any,
        duration: float,
        num_clients: int,
    ) -> "FaultSpec":
        """Draw a randomized schedule (property-test harness).

        ``rng`` is a ``repro.util.rng`` stream; every draw is deterministic
        per seed.  The schedule always exercises all four fault families:
        background loss + delay, one partition window, one MDS restart,
        and one client death (never the same client as the partition, so
        the partitioned client lives to demonstrate fencing).
        """
        loss = 0.02 + 0.06 * rng.random()
        delay_prob = 0.05 + 0.10 * rng.random()
        delay_max = 0.002 + 0.004 * rng.random()
        victims = list(range(num_clients))
        dead = victims[int(rng.integers(0, len(victims)))]
        partitioned = victims[int(rng.integers(0, len(victims)))]
        if partitioned == dead:
            partitioned = (dead + 1) % num_clients
        p_start = duration * (0.1 + 0.3 * rng.random())
        p_len = duration * (0.1 + 0.2 * rng.random())
        r_at = duration * (0.2 + 0.4 * rng.random())
        r_down = duration * (0.05 + 0.1 * rng.random())
        d_at = duration * (0.3 + 0.4 * rng.random())
        return cls(
            loss=loss,
            delay_prob=delay_prob,
            delay_max=delay_max,
            partitions=(
                Partition(
                    client_id=partitioned, start=p_start, end=p_start + p_len
                ),
            ),
            mds_restarts=(MdsRestart(at=r_at, downtime=r_down),),
            client_deaths=(ClientDeath(client_id=dead, at=d_at),),
        )
