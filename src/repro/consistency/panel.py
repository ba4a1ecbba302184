"""The oracle panel: one verdict over per-shard durable metadata state.

:func:`judge_shards` judges durable state on either substrate.  It takes
shard states -- anything with ``namespace``, ``space``,
``commit_apply_counts`` (read through ``items()``) and ``oplog``: a
:class:`~repro.mds.server.MetadataServer`, or a live shard's dump
reloaded by :func:`repro.rt.smoke.load_shard` -- plus the volume's
stable set and size, and checks per shard:

1. **Ordered writes** (``dangling-metadata``, ``extent-overlap``): every
   committed extent is stable, and no two claim the same bytes
   (:func:`repro.consistency.invariant.check_ordered_writes`).
2. **fsck**, live rule: no free space under a committed extent, and no
   byte held uncommitted by two clients.  A live shard legitimately
   holds uncommitted (delegated) space.
3. **Shard disjointness**: slices, extents and file-id ownership stay
   inside their shard (:func:`repro.mds.sharding.check_shard_disjointness`).
4. **Exactly-once** (``double-apply``): no ``(client, op)`` commit is
   applied twice, even where the namespace happens to mask it.
5. **History** (``history-divergence``): the oplog replayed into a
   shadow namespace reproduces the namespace exactly
   (:func:`repro.consistency.history.check_history`).

The simulator's judges (:mod:`repro.check.oracle`) run it and add what
only a simulated cluster can show.  The panel lives here, beside the
checks it composes, so a live substrate imports it without the
explorer.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.consistency.fsck import fsck
from repro.consistency.history import check_history
from repro.consistency.invariant import check_ordered_writes
from repro.mds.sharding import check_shard_disjointness

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.util.intervals import IntervalSet

__all__ = [
    "PANEL_KINDS",
    "Verdict",
    "durable_checks",
    "judge_shards",
    "shard_tags",
]

#: Every violation kind :func:`judge_shards` can report.
PANEL_KINDS = (
    "dangling-metadata",
    "extent-overlap",
    "fsck",
    "shard-disjointness",
    "double-apply",
    "history-divergence",
)


@dataclass
class Verdict:
    """One schedule's outcome across all invariant checks."""

    #: ``(kind, detail)`` pairs; empty means the schedule passed.
    violations: _t.List[_t.Tuple[str, str]] = field(default_factory=list)
    summaries: _t.List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append((kind, detail))

    def kinds(self) -> _t.List[str]:
        return sorted({kind for kind, _ in self.violations})

    def as_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": kind, "detail": detail}
                for kind, detail in self.violations
            ],
            "summaries": list(self.summaries),
        }


def shard_tags(count: int) -> _t.List[str]:
    """Per-shard suffixes for details; none for a single MDS."""
    return [f" [shard {k}]" if count > 1 else "" for k in range(count)]


def judge_shards(
    shards: _t.Sequence[_t.Any],
    stable: "IntervalSet",
    volume_size: int,
) -> Verdict:
    """The panel over per-shard durable state (checks 1-5 above)."""
    verdict = Verdict()
    for tag, shard in zip(shard_tags(len(shards)), shards):
        report = check_ordered_writes(shard.namespace, stable, shard.space)
        for violation in report.violations:
            verdict.add(violation.kind, violation.detail + tag)
        verdict.summaries.append("live " + report.summary() + tag)

        fsck_report = fsck(shard.namespace, shard.space)
        if fsck_report.lost_claimed:
            verdict.add("fsck", fsck_report.summary() + tag)
        verdict.summaries.append(fsck_report.summary() + tag)
    durable_checks(shards, volume_size, verdict)
    return verdict


def durable_checks(
    shards: _t.Sequence[_t.Any], volume_size: int, verdict: Verdict
) -> None:
    """Checks 3-5: they hold before and after recovery alike."""
    tags = shard_tags(len(shards))
    if len(shards) > 1:  # Vacuous for a single MDS; keep its verdict.
        problems = check_shard_disjointness(
            [(shard.namespace, shard.space) for shard in shards],
            volume_size,
        )
        for detail in problems:
            verdict.add("shard-disjointness", detail)
        verdict.summaries.append(
            f"shard-disjointness: {len(shards)} shards, "
            f"{len(problems)} violations"
        )

    worst = 0
    for tag, shard in zip(tags, shards):
        doubled = []
        for key, count in shard.commit_apply_counts.items():
            worst = max(worst, count)
            if count > 1:
                doubled.append((key, count))
        for (client_id, op_id), count in sorted(doubled):
            verdict.add(
                "double-apply",
                f"commit (client={client_id}, op={op_id}) applied "
                f"{count} times{tag}",
            )
    verdict.summaries.append(
        f"exactly-once: max applies per commit = {worst}"
    )

    for tag, shard in zip(tags, shards):
        history = check_history(shard.oplog, shard.namespace)
        for detail in history.violations:
            verdict.add("history-divergence", detail + tag)
        verdict.summaries.append(history.summary() + tag)
