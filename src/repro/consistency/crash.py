"""Whole-cluster power-loss injection.

A crash at virtual time *t* freezes the world as it is at *t*:

- data writes already *serviced* by the array are stable; everything
  still queued in an elevator or in flight is lost;
- every client's volatile state (page cache, commit queue, delegated
  space bookkeeping) vanishes;
- the MDS's durable state is exactly the commits it has applied (the
  paper assumes MDS-local metadata durability -- its focus is the
  *distributed* ordering between client data and MDS metadata).

The resulting :class:`CrashState` is what the invariant checker and
recovery operate on.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.fs.redbud import RedbudCluster
from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.util.intervals import IntervalSet


@dataclass
class CrashState:
    """What survives a power loss.

    ``shards`` carries every shard's durable ``(namespace, space)``
    pair (one pair for the paper's single MDS), so recovery and the
    oracle scan a deployment shard by shard.
    """

    crash_time: float
    shards: _t.Tuple[_t.Tuple[Namespace, SpaceManager], ...]
    stable: IntervalSet
    #: Commit records that were sitting in client queues (lost work).
    lost_commit_records: int
    #: Block requests that had not finished service at the crash: still
    #: queued in a client elevator *or* dispatched to a spindle and
    #: mid-service (lost data writes either way).
    lost_block_requests: int
    #: Witnessed-but-unsynced commit ops at the crash instant, as
    #: ``(client_id, op_id, file_id, extents)`` tuples (CURP replay).
    witnessed_ops: _t.Tuple[_t.Tuple[int, int, int, _t.Any], ...] = ()


def crash_cluster(
    cluster: RedbudCluster, at_time: _t.Optional[float] = None
) -> CrashState:
    """Run the cluster to ``at_time`` (if given), then pull the plug."""
    env = cluster.env
    if at_time is not None:
        if at_time < env.now:
            raise ValueError(
                f"crash time {at_time} is in the past (now={env.now})"
            )
        env.run(until=at_time)

    # The stable/lost boundary is the *completion* of a request's disk
    # service (when the array adds it to the stable set): requests still
    # queued in a client's elevator AND requests already dispatched to a
    # spindle but mid-service are both lost -- a torn in-flight write
    # contributes nothing durable in this model.  Count both sides of
    # that boundary so `lost_block_requests` matches it exactly; merged
    # groups count once, consistent with `len(scheduler)`.
    lost_records = 0
    lost_requests = len(cluster.array.in_flight)
    for client in cluster.clients:
        lost_requests += len(client.blockdev.scheduler)
        if client.commit_queue is not None:
            lost_records += len(client.commit_queue)
        client.crash()

    witnesses = cluster.witnesses
    return CrashState(
        crash_time=env.now,
        shards=tuple(
            (server.namespace, server.space) for server in cluster.metadata
        ),
        stable=cluster.array.stable,
        lost_commit_records=lost_records,
        lost_block_requests=lost_requests,
        witnessed_ops=(
            tuple(witnesses.unsynced_ops())
            if witnesses is not None
            else ()
        ),
    )
