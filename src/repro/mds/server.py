"""The metadata server's RPC service model.

The MDS runs a configurable number of **server daemon threads** (the
x-axis of Fig. 7).  Each daemon loops: take a service group of requests
from the shared inbox, spend CPU parsing and processing it, apply the
state changes under the namespace lock, and send the replies.  A group
holds at most as many requests as one shortest wait of the substrate
(``Effects.resolution``) takes to parse, shared among the daemons
waiting: one request in virtual time, up to 7 on a live shard.

Two costs shape Fig. 7:

- *per-message overhead* (parse, dispatch, reply construction) is paid
  once per RPC regardless of how many operations it carries -- this is
  what compound RPCs amortise;
- *multi-thread contention*: the apply phase serialises on a namespace
  lock, and every daemon's CPU phases slow slightly as more daemons run
  concurrently (cache-line and lock-handoff costs).  This produces the
  paper's observation that 16 daemons perform slightly *worse* than 8.
"""

from __future__ import annotations

import math
import sys
import typing as _t
from dataclasses import dataclass

from repro.mds.allocation import SpaceManager
from repro.mds.extent import Chunk, Extent
from repro.mds.namespace import FileExistsMdsError, Namespace
from repro.net.messages import (
    CommitOp,
    CommitPayload,
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    ReleasePayload,
    RpcMessage,
    UnlinkPayload,
)
from repro.net.rpc import RpcServerPort
from repro.core.kernel.process import Interrupt
from repro.core.kernel.resources import Resource

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


@dataclass(frozen=True)
class MdsParameters:
    """CPU-cost model of the metadata server."""

    #: Number of server daemon threads (Fig. 7 sweeps 1 / 8 / 16).
    num_daemons: int = 8
    #: Per-message parse/dispatch/reply CPU, seconds.  Message framing
    #: dominates op processing -- which is what makes compounding pay.
    svc_message: float = 110e-6
    #: Per-operation processing CPU (lookup, B+ tree work), seconds.
    svc_op: float = 50e-6
    #: Per-operation critical-section (apply) CPU, seconds.
    svc_apply: float = 20e-6
    #: Fractional slowdown of CPU phases per additional *active* daemon
    #: (lock handoffs).
    contention_factor: float = 0.035
    #: Fractional slowdown per provisioned daemon beyond the first
    #: (cache pressure, scheduler overhead) -- why 16 daemons end up
    #: slightly worse than 8 in Fig. 7.
    pool_overhead: float = 0.006
    #: Size of a delegated space chunk (§V.D uses 16 MB).
    delegation_chunk: int = 16 * 1024 * 1024
    #: Online orphan GC: reclaim a silent client's uncommitted space
    #: after this many seconds without an RPC from it.  ``None`` (the
    #: default here) disables the collector; cluster configurations turn
    #: it on.  Recovery-time GC works either way.
    lease_duration: _t.Optional[float] = None
    #: Lease-GC scan interval, seconds.
    gc_scan_interval: float = 5.0
    #: Metadata shards.  ``1`` is the paper's single-MDS deployment and
    #: is byte-identical to the pre-sharding code path; ``N > 1`` builds
    #: N independent :class:`MetadataServer` instances behind a
    #: client-side router (:mod:`repro.mds.sharding`).
    shards: int = 1


@dataclass
class LayoutReply:
    """Reply to a layout-get: mapped extents plus optional delegation."""

    extents: _t.List[Extent]
    chunk: _t.Optional[Chunk] = None


class MetadataServer:
    """The Redbud MDS: namespace + space manager behind an RPC port."""

    def __init__(
        self,
        env: "Effects",
        params: MdsParameters,
        namespace: Namespace,
        space: SpaceManager,
        port: RpcServerPort,
    ) -> None:
        self.env = env
        self.params = params
        self.namespace = namespace
        self.space = space
        self.port = port
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        # A service group holds at most as many requests as fill one
        # shortest wait of the substrate, counting one op each: 1 in
        # virtual time, 7 at the default costs on a live shard, no limit
        # when service is free.
        per_request = params.svc_message + params.svc_op
        port.inbox.group_limit = (
            max(1, math.ceil(env.resolution / per_request))
            if per_request > 0.0
            else sys.maxsize
        )
        self._lock = Resource(env, capacity=1)
        self._active = 0
        self.requests_processed = 0
        self.groups_served = 0
        self.ops_processed = 0
        self.stale_commits = 0
        self.busy_time = 0.0
        #: Per-request service-time quantile histogram (receive ->
        #: reply, seconds).  Always on -- pure bookkeeping, like
        #: ``busy_time`` -- so per-shard tails are reportable without
        #: arming the tracer; adopted into the metrics registry when an
        #: observability bundle is attached.
        from repro.obs.registry import Histogram

        self.service_hist = Histogram("mds.service_time")
        #: True between :meth:`crash` and :meth:`restart`.
        self.down = False
        self.restarts = 0
        self.requests_lost_in_crashes = 0
        #: Exactly-once commit application.  Keyed ``(client_id, op_id)``;
        #: holds the op's original result so a retransmitted commit gets
        #: the same answer without re-applying.  Modelled as *durable*
        #: (journalled with the metadata it guards, so it survives MDS
        #: restarts) -- see DESIGN.md "Failure model".
        self._commit_results: _t.Dict[_t.Tuple[int, int], bool] = {}
        #: Kill switch for the durable dedup table above.  Only the
        #: crash-schedule checker flips this off, to prove the harness
        #: detects the double-apply bug the table exists to prevent.
        self.commit_dedup_enabled = True
        #: Audit trail for tests: how many times each commit op was
        #: actually applied (must never exceed 1).
        self.commit_apply_counts: _t.Dict[_t.Tuple[int, int], int] = {}
        #: Durable namespace operation log (journal analogue): every
        #: applied create/commit/unlink in apply order, for history
        #: replay by ``repro.consistency.history``.  Survives crashes
        #: like the metadata it describes.
        self.oplog: _t.List[_t.Tuple[_t.Any, ...]] = []
        self.duplicate_commits_suppressed = 0
        #: NFS-style duplicate request cache for whole messages, keyed
        #: ``(client_id, xid)``.  Volatile (cleared on crash): commit
        #: safety never depends on it -- the durable per-op table above
        #: and the defensive commit rule do.
        self._reply_cache: _t.Dict[_t.Tuple[int, int], _t.Any] = {}
        self.duplicate_requests_suppressed = 0
        from repro.mds.lease_gc import LeaseGarbageCollector

        self.gc: _t.Optional[LeaseGarbageCollector] = None
        if params.lease_duration is not None:
            self.gc = LeaseGarbageCollector(
                env,
                space,
                lease_duration=params.lease_duration,
                scan_interval=params.gc_scan_interval,
            )
        self._daemons = self._spawn_daemons()

    def _spawn_daemons(self) -> _t.List[_t.Any]:
        return [
            self.env.process(
                self._daemon_loop(i), name=f"mds-daemon-{i}"
            )
            for i in range(self.params.num_daemons)
        ]

    # -- crash / restart -----------------------------------------------------

    def crash(self) -> int:
        """Fail-stop the MDS: lose the inbox, kill the daemon threads.

        Queued and in-flight (being parsed/applied) requests vanish with
        the server's memory; senders recover them via RPC retry.  The
        commit duplicate-suppression table and all applied metadata are
        journalled and survive.  Returns the number of inbox requests
        lost.
        """
        if self.down:
            return 0
        self.down = True
        lost = self.port.fail()
        self.requests_lost_in_crashes += lost
        for proc in self._daemons:
            if proc.is_alive:
                proc.interrupt("mds-crash")
        self._daemons = []
        self._active = 0
        # The duplicate *request* cache is in-memory state; it dies here.
        self._reply_cache.clear()
        if self.gc is not None:
            self.gc.pause()
        if self.obs is not None:
            self.obs.tracer.instant(
                "mds_crash", "fault", node="mds", actor="mds",
                requests_lost=lost,
            )
            self.obs.registry.counter("faults.mds_crashes").inc()
        return lost

    def restart(self) -> None:
        """Bring a crashed MDS back: accept requests, respawn daemons."""
        if not self.down:
            return
        self.down = False
        self.restarts += 1
        self.port.resume()
        self._daemons = self._spawn_daemons()
        if self.gc is not None:
            self.gc.resume()
        if self.obs is not None:
            self.obs.tracer.instant(
                "mds_restart", "fault", node="mds", actor="mds",
            )
            self.obs.registry.counter("faults.mds_restarts").inc()

    # -- daemon loop ---------------------------------------------------------

    def _daemon_loop(self, daemon_id: int) -> _t.Generator:
        try:
            yield from self._daemon_iterations(daemon_id)
        except Interrupt:
            # MDS crash: this thread dies where it stands.  Any held or
            # queued namespace-lock request is released/withdrawn by the
            # ``with`` context manager on unwind.
            return

    def _daemon_iterations(self, daemon_id: int) -> _t.Generator:
        """Serve one inbox group per iteration (see
        :class:`~repro.net.rpc.RpcServerPort` for how it is formed).

        A group of ``n`` messages carrying ``ops`` operations in all
        costs one parse delay of ``(n * svc_message + ops * svc_op)``
        and one apply delay of ``ops * svc_apply`` under one lock
        acquisition (each times the contention scale): every message is
        still charged its own parse, every op its own processing and
        apply.  The messages are applied and answered in order; spans,
        lease renewal and the per-request counters stay per message.
        """
        params = self.params
        while True:
            group: _t.Tuple[RpcMessage, ...] = yield self.port.next_group()
            self._active += 1
            start = self.env.now
            messages = ops = 0
            spans = None if self.obs is None else []
            for message in group:
                if self.gc is not None:
                    self.gc.renew(message.client_id)
                count = message.op_count()
                messages += 1
                ops += count
                if spans is not None:
                    spans.append(
                        self.obs.tracer.begin(
                            "mds_handle",
                            "mds",
                            node="mds",
                            actor=f"mds-daemon-{daemon_id}",
                            parent=message.trace_span_id,
                            update_ids=message.trace_ids,
                            kind=message.kind,
                            ops=count,
                            queue_wait=start - message.arrive_time,
                        )
                    )
            scale = self._contention_scale()
            # Parse + per-op processing (parallel across daemons).
            yield self.env.timeout(
                (messages * params.svc_message + ops * params.svc_op) * scale
            )
            # Apply under the namespace lock (serialised).
            with self._lock.request() as req:
                yield req
                yield self.env.timeout(
                    ops * params.svc_apply * self._contention_scale()
                )
                for message in group:
                    # Where ``reply`` puts it; nothing else runs before
                    # the replies below, so no other daemon can see it.
                    message.result = self._apply(message)

            self._active -= 1
            elapsed = self.env.now - start
            self.requests_processed += messages
            self.groups_served += 1
            self.ops_processed += ops
            # One daemon was busy for the group, however many it held.
            self.busy_time += elapsed
            if spans is not None:
                for span in spans:
                    self.obs.tracer.end(span)
            for message in group:
                self.service_hist.observe(elapsed)
                self.port.reply(message, message.result)

    def _contention_scale(self) -> float:
        extra_active = max(0, self._active - 1)
        extra_pool = max(0, self.params.num_daemons - 1)
        return (
            1.0
            + self.params.contention_factor * extra_active
            + self.params.pool_overhead * extra_pool
        )

    # -- operation semantics -------------------------------------------------

    def _apply(self, message: RpcMessage) -> _t.Any:
        # Duplicate request cache: a retransmission of a request we
        # already served gets the original answer instead of a second
        # application (xid 0 = hand-built message, no caching).
        cache_key = (message.client_id, message.xid)
        if message.xid and cache_key in self._reply_cache:
            self.duplicate_requests_suppressed += 1
            if self.obs is not None:
                self.obs.registry.counter("mds.duplicate_requests").inc()
            return self._reply_cache[cache_key]
        result = self._apply_payload(message)
        if message.xid:
            self._reply_cache[cache_key] = result
        return result

    def _apply_payload(self, message: RpcMessage) -> _t.Any:
        payload = message.payload
        now = self.env.now
        if isinstance(payload, CreatePayload):
            try:
                meta = self.namespace.create(payload.name, now)
                self.oplog.append(
                    ("create", meta.file_id, payload.name, now)
                )
                return meta
            except FileExistsMdsError:
                # NFS UNCHECKED-create semantics: a retransmitted create
                # whose original applied but whose reply-cache entry was
                # lost (reply dropped + cache evicted by a crash, or the
                # duplicate raced the original through the inbox) must
                # succeed with the existing file, not error out.
                self.duplicate_requests_suppressed += 1
                if self.obs is not None:
                    self.obs.registry.counter(
                        "mds.duplicate_requests"
                    ).inc()
                return self.namespace.lookup(payload.name)
        if isinstance(payload, GetattrPayload):
            if payload.file_id not in self.namespace:
                return None  # stat of a just-deleted file
            return self.namespace.get(payload.file_id)
        if isinstance(payload, LayoutGetPayload):
            if payload.file_id not in self.namespace:
                return LayoutReply(extents=[])  # raced an unlink
            return self._layout_get(message.client_id, payload)
        if isinstance(payload, CommitPayload):
            return self._commit(payload, message.client_id)
        if isinstance(payload, DelegationPayload):
            chunk = self.space.alloc_chunk(
                payload.chunk_size, client_id=message.client_id
            )
            if chunk is not None and self.obs is not None:
                self.obs.tracer.instant(
                    "delegation_grant", "mds", node="mds", actor="mds",
                    client=message.client_id, bytes=chunk.length,
                )
                self.obs.registry.counter("mds.delegation_grants").inc()
            return chunk
        if isinstance(payload, ReleasePayload):
            for offset, length in payload.chunks:
                self.space.release_uncommitted(
                    message.client_id, offset, length
                )
            return None
        if isinstance(payload, UnlinkPayload):
            if payload.file_id not in self.namespace:
                return None  # double unlink race
            self.oplog.append(("unlink", payload.file_id, now))
            for offset, length in self.namespace.unlink(payload.file_id):
                self.space.note_committed(offset, length)
                self.space.free(offset, length)
            return None
        raise TypeError(f"unknown payload {payload!r}")

    def _layout_get(
        self, client_id: int, payload: LayoutGetPayload
    ) -> LayoutReply:
        extents = self.namespace.layout(
            payload.file_id, payload.offset, payload.length
        )
        if payload.allocate:
            extents = extents + self._allocate_holes(
                client_id, payload.file_id, payload.offset, payload.length,
                extents, payload.scattered,
            )
        chunk = None
        if payload.delegation_hint:
            chunk = self.space.alloc_chunk(
                self.params.delegation_chunk, client_id=client_id
            )
            if chunk is not None and self.obs is not None:
                self.obs.tracer.instant(
                    "delegation_grant", "mds", node="mds", actor="mds",
                    client=client_id, bytes=chunk.length,
                )
                self.obs.registry.counter("mds.delegation_grants").inc()
        return LayoutReply(extents=extents, chunk=chunk)

    def _allocate_holes(
        self,
        client_id: int,
        file_id: int,
        offset: int,
        length: int,
        existing: _t.List[Extent],
        scattered: bool = False,
    ) -> _t.List[Extent]:
        """Allocate backing space for unmapped parts of the range."""
        new_extents: _t.List[Extent] = []
        cursor = offset
        end = offset + length
        for extent in sorted(existing, key=lambda e: e.file_offset):
            if extent.file_offset > cursor:
                hole = min(extent.file_offset, end) - cursor
                if hole > 0:
                    new_extents.append(
                        self._alloc_extent(
                            client_id, file_id, cursor, hole, scattered
                        )
                    )
            cursor = max(cursor, extent.file_end)
            if cursor >= end:
                break
        if cursor < end:
            new_extents.append(
                self._alloc_extent(
                    client_id, file_id, cursor, end - cursor, scattered
                )
            )
        return new_extents

    def _alloc_extent(
        self,
        client_id: int,
        file_id: int,
        file_offset: int,
        length: int,
        scattered: bool = False,
    ) -> Extent:
        volume_offset = self.space.alloc(
            length, client_id=client_id, scattered=scattered
        )
        return Extent(
            file_offset=file_offset,
            length=length,
            device_id=self.space.device_id,
            volume_offset=volume_offset,
        )

    def _commit(
        self, payload: CommitPayload, client_id: int
    ) -> _t.List[bool]:
        results = []
        for op in payload.ops:
            # Exactly-once: a commit op retried (alone or re-compounded
            # with different neighbours) after its first application is
            # answered from the durable table, never re-applied.
            dedup_key = None
            if op.op_id is not None:
                dedup_key = (client_id, op.op_id)
                if (
                    self.commit_dedup_enabled
                    and dedup_key in self._commit_results
                ):
                    self.duplicate_commits_suppressed += 1
                    if self.obs is not None:
                        self.obs.tracer.instant(
                            "commit_replay_suppressed", "fault",
                            node="mds", actor="mds",
                            update_ids=op.trace_ids,
                            op_id=op.op_id, client=client_id,
                        )
                        self.obs.registry.counter(
                            "mds.duplicate_commits"
                        ).inc()
                    results.append(self._commit_results[dedup_key])
                    continue
            result = self._commit_op(op, client_id)
            if dedup_key is not None:
                self._commit_results[dedup_key] = result
                self.commit_apply_counts[dedup_key] = (
                    self.commit_apply_counts.get(dedup_key, 0) + 1
                )
                if self.obs is not None:
                    # The dedup-table write is journalled with the
                    # metadata it guards (DESIGN §8).
                    self.obs.tracer.instant(
                        "journal_write", "mds", node="mds", actor="mds",
                        update_ids=op.trace_ids,
                        op_id=op.op_id, client=client_id,
                    )
                    self.obs.registry.counter("mds.journal_writes").inc()
            results.append(result)
        return results

    def replay_witnessed(
        self,
        client_id: int,
        op_id: int,
        file_id: int,
        extents: _t.Sequence[_t.Any],
    ) -> bool:
        """Crash recovery: apply one witnessed-but-unsynced commit op.

        CURP witness replay.  A fast-path commit acknowledged off the
        witnesses may not have reached the MDS before a whole-cluster
        crash; recovery replays the witnesses' unsynced entries here.
        The durable ``(client, op_id)`` result table deduplicates ops
        whose ordered sync *did* land pre-crash (the exactly-once
        oracle audits ``commit_apply_counts`` either way).  Returns
        True when the op was applied, False when dedup suppressed it.
        """
        dedup_key = (client_id, op_id)
        if (
            self.commit_dedup_enabled
            and dedup_key in self._commit_results
        ):
            self.duplicate_commits_suppressed += 1
            return False
        op = CommitOp(file_id=file_id, extents=list(extents), op_id=op_id)
        result = self._commit_op(op, client_id)
        self._commit_results[dedup_key] = result
        self.commit_apply_counts[dedup_key] = (
            self.commit_apply_counts.get(dedup_key, 0) + 1
        )
        return True

    def _commit_op(self, op: _t.Any, client_id: int) -> bool:
        if op.file_id not in self.namespace:
            # The file was unlinked while this commit was queued or in
            # flight (delete racing a delayed commit).  Drop the
            # commit; reclaim only extents this client still holds
            # uncommitted (an in-place re-commit's space was already
            # freed by the unlink itself).
            for extent in op.extents:
                self.space.reclaim_if_uncommitted(
                    client_id, extent.volume_offset, extent.length
                )
            return False
        # Defensive commit rule: apply an extent only when it is the
        # committing client's own fresh allocation; skip in-place
        # rewrites (mapping already correct); drop stale mappings
        # (e.g. a concurrent writer displaced them meanwhile).
        applied = []
        for extent in op.extents:
            if self.space.holds_uncommitted(
                client_id, extent.volume_offset, extent.length
            ):
                applied.append(extent)
            elif not self.namespace.mapping_matches(op.file_id, extent):
                self.stale_commits += 1
        if applied:
            freed = self.namespace.commit_extents(
                op.file_id, applied, self.env.now
            )
            for extent in applied:
                self.space.note_committed(
                    extent.volume_offset, extent.length, client_id
                )
            for offset, length in freed:
                self.space.free(offset, length)
            self.oplog.append(
                (
                    "commit",
                    op.file_id,
                    tuple(
                        (e.file_offset, e.length, e.volume_offset)
                        for e in applied
                    ),
                    self.env.now,
                )
            )
            if self.obs is not None:
                self.obs.tracer.instant(
                    "commit_apply", "mds", node="mds", actor="mds",
                    update_ids=op.trace_ids,
                    file_id=op.file_id, client=client_id,
                    extents=len(applied),
                )
                self.obs.registry.counter("mds.commit_applies").inc()
        return True

    # -- introspection -----------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return self.port.queue_length

    @property
    def utilization(self) -> float:
        if self.env.now <= 0:
            return 0.0
        return self.busy_time / (self.env.now * self.params.num_daemons)
