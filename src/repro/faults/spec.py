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
``FaultSpec.serialize`` renders a spec back into this language such that
``parse(spec.serialize()) == spec``.
"""

from __future__ import annotations

import re
import typing as _t
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LossBurst:
    """Message loss at probability ``prob`` during ``[start, end)``."""

    prob: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 < self.prob < 1.0:
            raise ValueError(
                f"loss burst probability must be in (0, 1), got {self.prob}"
            )
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"bad loss burst window [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class DelayBurst:
    """Extra delivery delay during ``[start, end)``: a fraction ``prob``
    of messages receive uniform(0, ``max_delay``) extra seconds."""

    prob: float
    max_delay: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(
                f"delay burst probability must be in (0, 1], got {self.prob}"
            )
        if self.max_delay <= 0:
            raise ValueError(
                f"delay burst needs a positive max delay, got {self.max_delay}"
            )
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"bad delay burst window [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class Partition:
    """One client's network cut off during ``[start, end)``."""

    client_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"bad client id {self.client_id}")
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"bad partition window [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class MdsRestart:
    """MDS crash at ``at``, restart ``downtime`` seconds later.

    ``shard`` narrows the crash to one metadata shard of a sharded
    deployment; ``None`` (the default, and the only legal value for a
    single-MDS cluster) crashes the whole service.
    """

    at: float
    downtime: float
    shard: _t.Optional[int] = None

    def __post_init__(self) -> None:
        if self.at < 0 or self.downtime <= 0:
            raise ValueError(
                f"bad mds_restart at={self.at} downtime={self.downtime}"
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"bad mds_restart shard {self.shard}")


@dataclass(frozen=True)
class ShardPartition:
    """Metadata shard ``shard`` cut off from all clients in [start, end)."""

    shard: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"bad shard id {self.shard}")
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"bad shard_partition window [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class ClientDeath:
    """Client ``client_id`` dies at ``at`` and never comes back."""

    client_id: int
    at: float

    def __post_init__(self) -> None:
        if self.client_id < 0 or self.at < 0:
            raise ValueError(
                f"bad client_death client={self.client_id} at={self.at}"
            )


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
        windows: _t.List[_t.Tuple[_t.Any, float, float]] = []
        for p in self.partitions:
            windows.append((("partition", p.client_id), p.start, p.end))
        for sp in self.shard_partitions:
            windows.append(
                (("shard_partition", sp.shard), sp.start, sp.end)
            )
        for lb in self.loss_bursts:
            windows.append((("loss_burst", "*"), lb.start, lb.end))
        for db in self.delay_bursts:
            windows.append((("delay_burst", "*"), db.start, db.end))
        by_scope: _t.Dict[_t.Any, _t.List[_t.Tuple[float, float]]] = {}
        for scope, start, end in windows:
            by_scope.setdefault(scope, []).append((start, end))
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
        return (
            self.loss == 0.0
            and self.delay_prob == 0.0
            and not self.partitions
            and not self.mds_restarts
            and not self.client_deaths
            and not self.shard_partitions
            and not self.loss_bursts
            and not self.delay_bursts
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the ``--faults`` mini-language (see module docstring)."""
        loss: _t.Optional[float] = None
        delay: _t.Optional[_t.Tuple[float, float]] = None
        loss_bursts: _t.List[LossBurst] = []
        delay_bursts: _t.List[DelayBurst] = []
        partitions: _t.List[Partition] = []
        mds_restarts: _t.List[MdsRestart] = []
        client_deaths: _t.List[ClientDeath] = []
        shard_partitions: _t.List[ShardPartition] = []
        crash_at: _t.Optional[float] = None
        for raw in text.split(","):
            clause = raw.strip()
            if not clause:
                continue
            try:
                if clause.startswith("loss="):
                    body = clause[len("loss="):]
                    if "@" in body:
                        prob_s, window = body.split("@")
                        start_s, end_s = re.split(r"(?<![eE])-", window)
                        loss_bursts.append(
                            LossBurst(
                                prob=float(prob_s),
                                start=float(start_s),
                                end=float(end_s),
                            )
                        )
                    else:
                        if loss is not None:
                            raise ValueError("duplicate loss clause")
                        loss = float(body)
                elif clause.startswith("delay="):
                    body = clause[len("delay="):]
                    if "@" in body:
                        rates, window = body.split("@")
                        prob_s, max_s = rates.split(":")
                        start_s, end_s = re.split(r"(?<![eE])-", window)
                        delay_bursts.append(
                            DelayBurst(
                                prob=float(prob_s),
                                max_delay=float(max_s),
                                start=float(start_s),
                                end=float(end_s),
                            )
                        )
                    else:
                        if delay is not None:
                            raise ValueError("duplicate delay clause")
                        prob_s, max_s = body.split(":")
                        delay = (float(prob_s), float(max_s))
                elif clause.startswith("partition="):
                    cid_s, window = clause[len("partition="):].split("@")
                    # Split on the window separator only, not the "-" of a
                    # scientific-notation exponent (e.g. "1e-05-0.5").
                    start_s, end_s = re.split(r"(?<![eE])-", window)
                    partitions.append(
                        Partition(
                            client_id=int(cid_s),
                            start=float(start_s),
                            end=float(end_s),
                        )
                    )
                elif clause.startswith("mds_restart@"):
                    parts = clause[len("mds_restart@"):].split(":")
                    shard: _t.Optional[int] = None
                    if len(parts) == 3:
                        if not parts[2].startswith("shard="):
                            raise ValueError(
                                f"expected shard=K, got {parts[2]!r}"
                            )
                        shard = int(parts[2][len("shard="):])
                    elif len(parts) != 2:
                        raise ValueError("expected mds_restart@T:D[:shard=K]")
                    mds_restarts.append(
                        MdsRestart(
                            at=float(parts[0]),
                            downtime=float(parts[1]),
                            shard=shard,
                        )
                    )
                elif clause.startswith("shard_partition="):
                    sid_s, window = clause[len("shard_partition="):].split(
                        "@"
                    )
                    start_s, end_s = re.split(r"(?<![eE])-", window)
                    shard_partitions.append(
                        ShardPartition(
                            shard=int(sid_s),
                            start=float(start_s),
                            end=float(end_s),
                        )
                    )
                elif clause.startswith("client_death="):
                    cid_s, at_s = clause[len("client_death="):].split("@")
                    client_deaths.append(
                        ClientDeath(client_id=int(cid_s), at=float(at_s))
                    )
                elif clause.startswith("crash@"):
                    if crash_at is not None:
                        raise ValueError("at most one crash clause")
                    crash_at = float(clause[len("crash@"):])
                else:
                    raise ValueError(f"unknown fault clause {clause!r}")
            except (ValueError, TypeError) as exc:
                if "unknown fault clause" in str(exc):
                    raise
                raise ValueError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from exc
        return cls(
            loss=loss if loss is not None else 0.0,
            delay_prob=delay[0] if delay is not None else 0.0,
            delay_max=delay[1] if delay is not None else 0.0,
            partitions=tuple(partitions),
            mds_restarts=tuple(mds_restarts),
            client_deaths=tuple(client_deaths),
            shard_partitions=tuple(shard_partitions),
            loss_bursts=tuple(loss_bursts),
            delay_bursts=tuple(delay_bursts),
            crash_at=crash_at,
        )

    def serialize(self) -> str:
        """Render back into the ``--faults`` mini-language.

        ``FaultSpec.parse(spec.serialize()) == spec`` for every spec;
        floats are emitted with ``repr`` so round-trips are exact.
        """
        clauses: _t.List[str] = []
        if self.loss:
            clauses.append(f"loss={self.loss!r}")
        if self.delay_prob:
            clauses.append(f"delay={self.delay_prob!r}:{self.delay_max!r}")
        for lb in self.loss_bursts:
            clauses.append(f"loss={lb.prob!r}@{lb.start!r}-{lb.end!r}")
        for db in self.delay_bursts:
            clauses.append(
                f"delay={db.prob!r}:{db.max_delay!r}"
                f"@{db.start!r}-{db.end!r}"
            )
        for p in self.partitions:
            clauses.append(f"partition={p.client_id}@{p.start!r}-{p.end!r}")
        for r in self.mds_restarts:
            suffix = "" if r.shard is None else f":shard={r.shard}"
            clauses.append(f"mds_restart@{r.at!r}:{r.downtime!r}{suffix}")
        for d in self.client_deaths:
            clauses.append(f"client_death={d.client_id}@{d.at!r}")
        for sp in self.shard_partitions:
            clauses.append(
                f"shard_partition={sp.shard}@{sp.start!r}-{sp.end!r}"
            )
        if self.crash_at is not None:
            clauses.append(f"crash@{self.crash_at!r}")
        return ",".join(clauses)

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
