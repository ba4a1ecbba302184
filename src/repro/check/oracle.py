"""The checker's oracle: every invariant the system promises, in one verdict.

Both judges start from the oracle panel (:mod:`repro.consistency.panel`).
:func:`judge_live` runs it on a settled cluster; :func:`judge_crash`
swaps its ordered-writes and live fsck checks for recovery's pre/post
checks and a strict fsck.  Both then add what durable state cannot
show: trace-level commit ordering.
"""

from __future__ import annotations

import typing as _t

from repro.consistency.crash import CrashState
from repro.consistency.fsck import fsck
from repro.consistency.history import check_commit_ordering
from repro.consistency.panel import (
    PANEL_KINDS,
    Verdict,
    durable_checks,
    judge_shards,
    shard_tags,
)
from repro.consistency.recovery import recover

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.fs.redbud import RedbudCluster

__all__ = [
    "PANEL_KINDS",
    "Verdict",
    "judge_crash",
    "judge_live",
    "judge_shards",
]


def judge_crash(
    cluster: "RedbudCluster", state: CrashState
) -> Verdict:
    """Judge a crashed cluster: recovery, strict fsck, then the panel's
    disjointness, exactly-once and history checks."""
    verdict = Verdict()
    # CURP witness replay runs *before* recovery: a fast-path commit
    # acknowledged off the witnesses but not yet synced to the MDS is
    # re-applied from the witnesses' durable entries (deduplicated
    # against the MDS result table), exactly like a real recovery
    # master would.  Recovery's orphan reclamation then sees the op's
    # extents as committed rather than reclaiming them.
    if state.witnessed_ops:
        replayed = suppressed = 0
        for client_id, op_id, file_id, extents in state.witnessed_ops:
            shard = cluster.router.shard_of_file(file_id)
            if cluster.metadata.shard(shard).replay_witnessed(
                client_id, op_id, file_id, extents
            ):
                replayed += 1
            else:
                suppressed += 1
        witnesses = getattr(cluster, "witnesses", None)
        if witnesses is not None:
            witnesses.replayed_ops += replayed
        verdict.summaries.append(
            f"witness replay: {replayed} applied, "
            f"{suppressed} deduplicated"
        )
    report = recover(state)
    for violation in report.pre_check.violations:
        verdict.add(violation.kind, violation.detail)
    for violation in report.post_check.violations:
        if violation not in report.pre_check.violations:
            verdict.add(violation.kind, violation.detail)
    verdict.summaries.append("pre-GC " + report.pre_check.summary())
    verdict.summaries.append(
        f"recovery reclaimed {report.orphan_bytes_reclaimed} orphan bytes"
    )

    for tag, (namespace, space) in zip(
        shard_tags(len(state.shards)), state.shards
    ):
        fsck_report = fsck(namespace, space)
        if not fsck_report.clean:
            verdict.add("fsck", fsck_report.summary() + tag)
        verdict.summaries.append(fsck_report.summary() + tag)

    durable_checks(
        list(cluster.metadata), cluster.config.disk.volume_size, verdict
    )
    _simulator_checks(cluster, verdict)
    return verdict


def judge_live(cluster: "RedbudCluster") -> Verdict:
    """Judge a quiescent (settled, un-crashed) cluster."""
    verdict = judge_shards(
        list(cluster.metadata),
        cluster.array.stable,
        cluster.config.disk.volume_size,
    )
    _simulator_checks(cluster, verdict)
    return verdict


def _simulator_checks(cluster: "RedbudCluster", verdict: Verdict) -> None:
    """What only a simulated cluster can show: the trace."""
    if cluster.obs is not None:
        for detail in check_commit_ordering(cluster.obs.tracer):
            verdict.add("commit-before-stable", detail)

