"""Background commit daemons (§III.A step 4).

Each daemon loops: wait for a data-stable record in the commit queue,
check out up to *compound degree* records, construct one compound commit
RPC, send it to the MDS, and on reply mark every covered record
committed.  Because checkout requires ``data_stable``, the write order of
the paper is preserved: no file's metadata ever leaves the client before
its data is on disk.

Daemons are spawned and retired by the adaptive thread pool
(:mod:`repro.core.thread_pool`); a daemon parked on the queue can be
interrupted to retire instantly, while a busy daemon honours a retire
flag after finishing its in-flight RPC.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.commit_queue import CommitQueue
from repro.core.compound import CompoundController
from repro.core.records import CommitRecord
from repro.net.messages import CommitOp, CommitPayload
from repro.net.rpc import RpcClient
from repro.core.kernel.process import Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


@dataclass
class CommitDaemonStats:
    """Shared counters across the daemon pool."""

    rpcs_sent: int = 0
    ops_committed: int = 0
    total_commit_latency: float = 0.0
    #: Histogram of compound degrees actually used: degree -> count.
    degree_histogram: _t.Dict[int, int] = field(default_factory=dict)

    @property
    def mean_degree(self) -> float:
        if self.rpcs_sent == 0:
            return 0.0
        return self.ops_committed / self.rpcs_sent

    @property
    def mean_commit_latency(self) -> float:
        """Mean enqueue-to-committed latency per op."""
        if self.ops_committed == 0:
            return 0.0
        return self.total_commit_latency / self.ops_committed


class CommitDaemonContext:
    """Everything a commit daemon needs, shared across the pool."""

    def __init__(
        self,
        env: "Effects",
        queue: CommitQueue,
        rpc: RpcClient,
        controller: CompoundController,
        on_committed: _t.Optional[_t.Callable[[CommitRecord], None]] = None,
        node: str = "",
        witnesses: _t.Optional[_t.Any] = None,
    ) -> None:
        self.env = env
        self.queue = queue
        self.rpc = rpc
        self.controller = controller
        self.on_committed = on_committed
        self.stats = CommitDaemonStats()
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self.node = node
        #: CURP witness set (:class:`repro.core.witness.WitnessSet`), or
        #: None for the ordered-only path.
        self.witnesses = witnesses


class DaemonState:
    """Per-daemon flags the pool uses to manage the daemon's lifecycle."""

    __slots__ = ("idle", "retire_requested")

    def __init__(self) -> None:
        self.idle = True
        self.retire_requested = False


def commit_daemon(
    ctx: CommitDaemonContext, state: DaemonState
) -> _t.Generator:
    """Generator body of one background commit daemon."""
    env = ctx.env
    while not state.retire_requested:
        state.idle = True
        try:
            yield ctx.queue.wait_for_stable()
        except Interrupt:
            return  # Retired while parked.
        state.idle = False

        batch = ctx.queue.checkout_stable(limit=ctx.controller.degree)
        if not batch:
            continue  # Another daemon won the race.
        # Single-shard by construction (checkout never mixes shards);
        # the compound RPC routes to -- and its latency sample scores --
        # this shard's server.
        batch_shard = batch[0].shard

        batch_trace_ids = tuple(
            uid for record in batch for uid in record.trace_ids
        )
        if ctx.obs is not None:
            ctx.obs.tracer.instant(
                "compound_assembly",
                "daemon",
                node=ctx.node,
                actor="commit-daemon",
                update_ids=batch_trace_ids,
                degree=len(batch),
                files=[record.file_id for record in batch],
            )
        # Each checked-out record becomes exactly one commit op, stamped
        # with a client-unique op id.  A retried RPC resends the same ops
        # (same ids), which is what lets the MDS suppress replays.
        payload = CommitPayload(
            ops=[
                CommitOp(
                    file_id=record.file_id,
                    extents=record.extents,
                    enqueue_time=record.enqueue_time,
                    trace_ids=record.trace_ids,
                    op_id=ctx.rpc.next_op_id(),
                )
                for record in batch
            ]
        )
        sent_at = env.now
        # CURP fast path: commits whose file ranges are disjoint from
        # every unsynced op are recorded unordered on the witnesses in
        # one fast RTT, after which the records count as committed; the
        # ordered MDS sync then proceeds with the records already
        # acknowledged.  Safe because checkout guarantees data-stable:
        # the array has serviced the extents, and a crash before the
        # MDS sync replays the witnessed ops.
        witnessed = (
            ctx.witnesses is not None
            and ctx.witnesses.try_record(ctx.rpc.client_id, payload.ops)
        )
        if witnessed:
            yield env.timeout(ctx.witnesses.rtt)
            if ctx.obs is not None:
                ctx.obs.tracer.instant(
                    "witness_commit",
                    "daemon",
                    node=ctx.node,
                    actor="commit-daemon",
                    update_ids=batch_trace_ids,
                    degree=len(batch),
                )
            _finish_batch(ctx, batch, sent_at)
        try:
            yield ctx.rpc.call("commit", payload, trace_ids=batch_trace_ids)
        except Interrupt:
            # Retire requested mid-RPC; the reply is lost to this daemon
            # but the MDS applied the commit.  Treat records as committed
            # (witnessed batches already were); the witness entries stay
            # unsynced and are cleared by dedup at replay time.
            if not witnessed:
                _finish_batch(ctx, batch, sent_at)
            return
        ctx.controller.observe_rpc_latency(
            env.now - sent_at, shard=batch_shard
        )
        if witnessed:
            ctx.witnesses.sync(
                ctx.rpc.client_id, [op.op_id for op in payload.ops]
            )
        else:
            _finish_batch(ctx, batch, sent_at)


def _finish_batch(
    ctx: CommitDaemonContext,
    batch: _t.List[CommitRecord],
    sent_at: float,
) -> None:
    ctx.stats.rpcs_sent += 1
    degree = len(batch)
    ctx.stats.degree_histogram[degree] = (
        ctx.stats.degree_histogram.get(degree, 0) + 1
    )
    if ctx.obs is not None:
        reg = ctx.obs.registry
        reg.counter("commit.rpcs").inc()
        reg.histogram("commit.compound_degree").observe(degree)
    for record in batch:
        ctx.stats.ops_committed += 1
        ctx.stats.total_commit_latency += ctx.env.now - record.enqueue_time
        if ctx.obs is not None:
            ctx.obs.registry.counter("commit.ops_committed").inc()
            ctx.obs.registry.histogram("commit.latency").observe(
                ctx.env.now - record.enqueue_time
            )
        record.committed_event.succeed()
        if ctx.on_committed is not None:
            ctx.on_committed(record)
