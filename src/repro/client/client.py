"""The Redbud client node.

Wires together the paper's client-side stack (Fig. 2): page cache,
direct FC data path to the shared array, Ethernet RPC path to the MDS,
and -- per configuration -- the Delayed Commit machinery of §III/§IV.

Write path (an *update* in the paper's vocabulary):

1. acquire backing space -- locally from the delegated double pool for
   small files, or via a ``layout-get`` RPC otherwise;
2. buffer the data in the page cache and issue ``writepage`` to the
   block device (asynchronously -- the completion event is kept);
3. finish per the commit protocol: synchronous commit waits for the data
   and the commit RPC inline; delayed commit enqueues a commit record
   and returns at memory speed.
"""

from __future__ import annotations

import typing as _t

from repro.core.commit_queue import CommitQueue
from repro.core.compound import CompoundController, CompoundPolicy
from repro.core.daemon import CommitDaemonContext
from repro.core.delegation import DoubleSpacePool
from repro.core.protocol import (
    CommitProtocol,
    DelayedCommitProtocol,
    SynchronousCommitProtocol,
    make_protocol,
)
from repro.core.records import CommitRecord
from repro.core.thread_pool import AdaptiveCommitThreadPool, ThreadPoolPolicy
from repro.client.filesystem import FileSystemAPI
from repro.mds.extent import Extent
from repro.net.messages import (
    CreatePayload,
    DelegationPayload,
    GetattrPayload,
    LayoutGetPayload,
    UnlinkPayload,
)
from repro.net.rpc import RpcClient
from repro.core.kernel.events import Event
from repro.storage.blockdev import BlockDevice
from repro.storage.cache import PageCache

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


def _segments(
    length: int, segment: _t.Optional[int]
) -> _t.Iterator[_t.Tuple[int, int]]:
    """Yield (offset, length) pieces of a write; one piece if unsplit."""
    if segment is None or length <= segment:
        yield 0, length
        return
    cursor = 0
    while cursor < length:
        piece = min(segment, length - cursor)
        yield cursor, piece
        cursor += piece


class RedbudClient(FileSystemAPI):
    """One client node of the Redbud cluster."""

    def __init__(
        self,
        env: "Effects",
        client_id: int,
        rpc: RpcClient,
        blockdev: BlockDevice,
        cache: _t.Optional[PageCache] = None,
        commit_mode: str = "synchronous",
        commit_queue_capacity: int = 4096,
        thread_pool_policy: ThreadPoolPolicy = ThreadPoolPolicy(),
        compound_policy: CompoundPolicy = CompoundPolicy(),
        fixed_compound_degree: _t.Optional[int] = None,
        device_id: int = 0,
        dirty_limit: int = 64 * 1024 * 1024,
        degrade_after_timeouts: int = 3,
        degrade_backlog: _t.Optional[int] = None,
        delegation_pools: _t.Optional[
            _t.Dict[int, DoubleSpacePool]
        ] = None,
        shard_of_file: _t.Optional[_t.Callable[[int], int]] = None,
        num_shards: int = 1,
        witnesses: _t.Optional[_t.Any] = None,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.rpc = rpc
        self.blockdev = blockdev
        self.cache = cache if cache is not None else PageCache()
        self.commit_mode = commit_mode
        self.num_shards = num_shards
        self._shard_of_file = shard_of_file
        #: Delegated space is per metadata shard: each shard hands out
        #: chunks from its own allocation groups, so the client pools
        #: them separately (empty without space delegation).
        self.delegation_pools = dict(delegation_pools or {})
        self.device_id = device_id
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self._node = f"client-{client_id}"

        self.commit_queue: _t.Optional[CommitQueue] = None
        self.thread_pool: _t.Optional[AdaptiveCommitThreadPool] = None
        self.compound: _t.Optional[CompoundController] = None
        self.daemon_ctx: _t.Optional[CommitDaemonContext] = None

        needs_queue = commit_mode in ("delayed", "unordered")
        if needs_queue:
            self.commit_queue = CommitQueue(
                env,
                capacity=commit_queue_capacity,
                node=self._node,
                shard_of=(shard_of_file if num_shards > 1 else None),
            )
            self.compound = CompoundController(
                env,
                uplink=rpc.transport.uplink,
                policy=compound_policy,
                fixed_degree=fixed_compound_degree,
                node=self._node,
            )
            self.daemon_ctx = CommitDaemonContext(
                env,
                self.commit_queue,
                rpc,
                self.compound,
                on_committed=self._on_record_committed,
                node=self._node,
                witnesses=witnesses,
            )
            self.thread_pool = AdaptiveCommitThreadPool(
                env, self.daemon_ctx, policy=thread_pool_policy
            )

        self.protocol: CommitProtocol = make_protocol(
            commit_mode, env, rpc, self.commit_queue, node=self._node
        )

        # Graceful degradation (§"Failure model" in DESIGN.md): when the
        # MDS looks unreachable (consecutive RPC timeouts) or the commit
        # backlog piles up past a threshold, delayed-commit clients fall
        # back to synchronous ordered writes -- each update then waits
        # for data stability and its own commit inline, bounding the
        # volatile commit backlog until the MDS answers again.  Only
        # armed when the RPC stub has a retry policy; without one, a
        # fault-free run never sees timeouts and must stay byte-identical
        # to pre-fault behaviour.
        self._sync_fallback: _t.Optional[SynchronousCommitProtocol] = None
        if needs_queue and rpc.retry is not None:
            self._sync_fallback = SynchronousCommitProtocol(
                env, rpc, node=self._node
            )
        self.degrade_after_timeouts = degrade_after_timeouts
        self.degrade_backlog = (
            degrade_backlog
            if degrade_backlog is not None
            else max(16, commit_queue_capacity // 8)
        )
        self.degraded = False
        self.degrade_transitions = 0
        self.degraded_writes = 0
        #: Kill-switch for the degraded->delayed reversion (the exit arm
        #: of the hysteresis).  Disabling it plants a liveness bug -- the
        #: client stays in sync fallback after the fault heals -- used by
        #: the soak harness's seeded-bug self-test (--seed-bug degrade).
        self.degrade_exit_enabled = True

        #: All not-yet-committed records per file (fsync waits on these).
        self._pending_records: _t.Dict[int, _t.Set[CommitRecord]] = {}
        #: In-flight delegation RPC per shard (at most one each).
        self._refill_events: _t.Dict[int, Event] = {}
        #: Writeback throttling (the kernel's dirty-pages limit): when the
        #: page cache holds this many un-persisted bytes, new writes block
        #: until the disk drains some -- this is what keeps delayed commit
        #: honest on large-file workloads (no infinite memory buffering).
        self.dirty_limit = dirty_limit
        self._dirty_waiters: _t.List[Event] = []
        self.dirty_throttle_events = 0
        #: Async writeback submission granularity (a writepage batch).
        self.writeback_segment = 16 * 1024
        #: Large streaming writes go out in full-size block-layer
        #: requests instead (no point splitting what cannot merge more).
        self.writeback_large_segment = 128 * 1024
        self.crashed = False

        # -- statistics --
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.read_disk_hits = 0
        self.short_reads = 0
        #: Space-acquisition split: delegated-pool hits vs. layout RPCs
        #: (the §IV.A delegation hit-rate; always counted, tracing or not).
        self.space_local_allocs = 0
        self.space_rpc_allocs = 0

    # ------------------------------------------------------------------
    # FileSystemAPI
    # ------------------------------------------------------------------

    def _halt_forever(self) -> Event:
        """A dead node never completes anything: park the caller.

        Nothing else holds the event, so the parked process and it
        reference only each other: the one cyclic garbage a run makes,
        left to the collector's next full pass.
        """
        return Event(self.env)

    def create(self, name: str) -> _t.Generator:
        if self.crashed:
            yield self._halt_forever()
        meta = yield self.rpc.call("create", CreatePayload(name=name))
        return meta.file_id

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        scattered: bool = False,
    ) -> _t.Generator:
        if length <= 0:
            raise ValueError(f"write length must be positive, got {length}")
        if self.crashed:
            yield self._halt_forever()
        self.writes += 1
        self.bytes_written += length

        # Causal trace: one update id and one root span per write call.
        update_id: _t.Optional[int] = None
        update_span = None
        if self.obs is not None:
            tracer = self.obs.tracer
            update_id = tracer.new_update()
            update_span = tracer.begin(
                "update",
                "client",
                node=self._node,
                actor="app",
                update_ids=(update_id,),
                file_id=file_id,
                offset=offset,
                length=length,
            )
            self.obs.registry.counter("client.updates").inc()

        # Dirty-pages throttle: block while the cache holds too much
        # un-persisted data (writeback backpressure, as in the kernel).
        while self.cache.dirty_bytes + length > self.dirty_limit and (
            self.cache.dirty_bytes > 0
        ):
            self.dirty_throttle_events += 1
            # Memory pressure kicks writeback: plugged writes go out now.
            self.blockdev.scheduler.expedite_all_writes()
            waiter = Event(self.env)
            self._dirty_waiters.append(waiter)
            yield waiter

        extents = yield from self._acquire_space(
            file_id, offset, length, scattered
        )

        # Page cache + writepage: issue the data I/O now (§III.A step 1).
        # Synchronous commit blocks the application, so each extent goes
        # out as one sync request.  Delayed commit's data is async
        # writeback: it is submitted in page-batch segments (the
        # writepage granularity) which the block layer re-merges --
        # within a file always, and across files when allocation made
        # them adjacent (space delegation).
        self.cache.write(file_id, offset, length)
        sync_write = self.commit_mode == "synchronous"
        data_events: _t.List[Event] = []
        for extent in extents:
            if sync_write:
                segment = None
            elif extent.length > 8 * self.writeback_segment:
                segment = self.writeback_large_segment
            else:
                segment = self.writeback_segment
            for seg_off, seg_len in _segments(extent.length, segment):
                event = self.blockdev.submit_write(
                    extent.volume_offset + seg_off,
                    seg_len,
                    file_id,
                    sync=sync_write,
                    trace_update=update_id,
                )
                event.callbacks.append(
                    lambda _ev, e=extent, so=seg_off, sl=seg_len: (
                        self._data_write_done(
                            file_id, e.file_offset + so, sl
                        )
                    )
                )
                if self.obs is not None:
                    # Open a writepage span closed by the completion
                    # callback (recording only -- cannot perturb order).
                    tracer = self.obs.tracer
                    wp_span = tracer.begin(
                        "writepage",
                        "client",
                        node=self._node,
                        actor="writeback",
                        parent=update_span.span_id,
                        update_ids=(update_id,),
                        start=extent.volume_offset + seg_off,
                        length=seg_len,
                        sync=sync_write,
                    )
                    event.callbacks.append(
                        lambda _ev, s=wp_span: tracer.end(s)
                    )
                data_events.append(event)

        protocol: CommitProtocol = self.protocol
        if self._update_degraded():
            protocol = self._sync_fallback
            self.degraded_writes += 1
        record = yield from protocol.finish_update(
            file_id, extents, data_events, update_id=update_id
        )
        if record is not None:
            self._pending_records.setdefault(file_id, set()).add(record)
        if update_span is not None:
            self.obs.tracer.end(update_span)

    def read(self, file_id: int, offset: int, length: int) -> _t.Generator:
        if length <= 0:
            raise ValueError(f"read length must be positive, got {length}")
        if self.crashed:
            yield self._halt_forever()
        self.reads += 1
        self.bytes_read += length

        if self.cache.read_hit(file_id, offset, length):
            return True
        reply = yield self.rpc.call(
            "layout_get",
            LayoutGetPayload(file_id=file_id, offset=offset, length=length),
        )
        if not reply.extents:
            # Nothing committed in the range (hole or uncommitted data
            # written elsewhere): reads as zeros without touching disk.
            self.short_reads += 1
            return False
        events = [
            self.blockdev.submit_read(e.volume_offset, e.length, file_id)
            for e in reply.extents
        ]
        for event in events:
            yield event
        self.read_disk_hits += 1
        for extent in reply.extents:
            self.cache.fill(file_id, extent.file_offset, extent.length)
        return True

    def fsync(self, file_id: int) -> _t.Generator:
        """Wait until every pending update of the file is durable."""
        # fsync kicks writeback: plugged async writes of this file are
        # dispatched immediately.
        self.blockdev.expedite_file(file_id)
        records = list(self._pending_records.get(file_id, ()))
        for record in records:
            # Data stability first (matters only in the unordered control
            # mode; delayed commit implies it before the RPC is sent).
            for event in record.data_events:
                if event.callbacks is not None:
                    yield event
            if not record.committed_event.processed:
                yield record.committed_event
        return None

    def close(self, file_id: int, sync: bool = False) -> _t.Generator:
        if sync:
            yield from self.fsync(file_id)
        return None

    def unlink(self, file_id: int) -> _t.Generator:
        yield from self.fsync(file_id)  # no dangling commits for dead files
        yield self.rpc.call("unlink", UnlinkPayload(file_id=file_id))
        self.cache.drop_file(file_id)
        return None

    def stat(self, file_id: int) -> _t.Generator:
        if self.crashed:
            yield self._halt_forever()
        meta = yield self.rpc.call(
            "getattr", GetattrPayload(file_id=file_id)
        )
        return meta

    # ------------------------------------------------------------------
    # Space acquisition
    # ------------------------------------------------------------------

    def _shard_for(self, file_id: int) -> int:
        if self._shard_of_file is None or self.num_shards == 1:
            return 0
        return self._shard_of_file(file_id)

    def _acquire_space(
        self, file_id: int, offset: int, length: int, scattered: bool = False
    ) -> _t.Generator:
        """Return the new extents backing ``[offset, offset+length)``."""
        shard = self._shard_for(file_id)
        pool = self.delegation_pools.get(shard)
        if not scattered and pool is not None and pool.can_serve(length):
            self.space_local_allocs += 1
            volume_offset = yield from self._delegated_alloc(shard, length)
            extent = Extent(
                file_offset=offset,
                length=length,
                device_id=self.device_id,
                volume_offset=volume_offset,
            )
            self._maybe_background_refill(shard)
            return [extent]

        self.space_rpc_allocs += 1
        reply = yield self.rpc.call(
            "layout_get",
            LayoutGetPayload(
                file_id=file_id,
                offset=offset,
                length=length,
                allocate=True,
                scattered=scattered,
                delegation_hint=(
                    pool is not None
                    and pool.needs_refill
                    and shard not in self._refill_events
                ),
            ),
        )
        if reply.chunk is not None and pool is not None:
            pool.refill(reply.chunk)
        return [e for e in reply.extents if e.state == "new"] or reply.extents

    def _delegated_alloc(self, shard: int, length: int) -> _t.Generator:
        """Allocate locally, fetching a fresh chunk if the pool ran dry."""
        pool = self.delegation_pools[shard]
        while True:
            volume_offset = pool.alloc(length)
            if volume_offset is not None:
                return volume_offset
            yield self._start_refill(shard)

    def _start_refill(self, shard: int) -> Event:
        """Kick off (or join) an in-flight delegation RPC for a shard."""
        pending = self._refill_events.get(shard)
        if pending is not None:
            return pending
        done = Event(self.env)
        self._refill_events[shard] = done
        pool = self.delegation_pools[shard]

        def refill_proc() -> _t.Generator:
            chunk = yield self.rpc.call(
                "delegate",
                DelegationPayload(
                    chunk_size=pool.chunk_size, shard=shard
                ),
            )
            pool.refill(chunk)
            del self._refill_events[shard]
            done.succeed()

        self.env.process(refill_proc(), name=f"refill-{self.client_id}")
        return done

    def _maybe_background_refill(self, shard: int) -> None:
        """Proactively refresh the standby chunk without blocking."""
        pool = self.delegation_pools.get(shard)
        if (
            pool is not None
            and pool.needs_refill
            and shard not in self._refill_events
        ):
            self._start_refill(shard)

    # ------------------------------------------------------------------
    # Commit bookkeeping
    # ------------------------------------------------------------------

    def _data_write_done(
        self, file_id: int, offset: int, length: int
    ) -> None:
        self.cache.mark_clean(file_id, offset, length)
        if self._dirty_waiters and (
            self.cache.dirty_bytes < self.dirty_limit
        ):
            waiters, self._dirty_waiters = self._dirty_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

    def _update_degraded(self) -> bool:
        """Evaluate (with hysteresis) the delayed->sync fallback state."""
        if self._sync_fallback is None:
            return False
        backlog = (
            len(self.commit_queue) if self.commit_queue is not None else 0
        )
        if not self.degraded:
            if (
                self.rpc.consecutive_timeouts >= self.degrade_after_timeouts
                or backlog >= self.degrade_backlog
            ):
                self.degraded = True
                self.degrade_transitions += 1
                if self.obs is not None:
                    self.obs.tracer.instant(
                        "degrade_enter", "fault",
                        node=self._node, actor="app",
                        timeouts=self.rpc.consecutive_timeouts,
                        backlog=backlog,
                    )
                    self.obs.registry.counter("client.degrade_enter").inc()
        else:
            # Leave only once the MDS answers again *and* the backlog has
            # drained well below the entry threshold (hysteresis).
            if (
                self.degrade_exit_enabled
                and self.rpc.consecutive_timeouts == 0
                and backlog <= self.degrade_backlog // 2
            ):
                self.degraded = False
                self.degrade_transitions += 1
                if self.obs is not None:
                    self.obs.tracer.instant(
                        "degrade_exit", "fault",
                        node=self._node, actor="app",
                        backlog=backlog,
                    )
                    self.obs.registry.counter("client.degrade_exit").inc()
        return self.degraded

    def _on_record_committed(self, record: CommitRecord) -> None:
        pending = self._pending_records.get(record.file_id)
        if pending is not None:
            pending.discard(record)
            if not pending:
                del self._pending_records[record.file_id]

    def pending_commit_count(self) -> int:
        return sum(len(s) for s in self._pending_records.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> _t.Generator:
        """Graceful stop: flush commits, return unused delegated space."""
        for file_id in list(self._pending_records):
            yield from self.fsync(file_id)
        for shard in sorted(self.delegation_pools):
            leftovers = self.delegation_pools[shard].drain()
            if leftovers:
                from repro.net.messages import ReleasePayload

                yield self.rpc.call(
                    "release",
                    ReleasePayload(chunks=leftovers, shard=shard),
                )
        if self.thread_pool is not None:
            self.thread_pool.stop()
        return None

    def crash(self) -> None:
        """Power loss: all volatile state disappears instantly."""
        self.crashed = True
        self.cache.drop_volatile()
        if self.commit_queue is not None:
            self.commit_queue.drop_all()
        if self.thread_pool is not None:
            self.thread_pool.stop()
        self._pending_records.clear()

    def die(self) -> int:
        """Single-node death while the rest of the cluster keeps running.

        Unlike :meth:`crash` (a whole-cluster power-loss snapshot taken
        just before the simulation stops), ``die`` models one client
        failing mid-run: its volatile state is lost, its queued block
        requests vanish with it, and its RPC stub goes silent forever --
        so in-flight retry loops park instead of retransmitting.  The
        node's uncommitted and delegated space is *not* returned here;
        that is exactly what the MDS's lease GC reclaims once the dead
        client's lease expires.  Returns the number of queued block
        requests lost with the node.
        """
        if self.crashed:
            return 0
        self.crash()
        self.rpc.stop()
        lost_io = self.blockdev.scheduler.drop_all()
        if self.obs is not None:
            self.obs.tracer.instant(
                "client_death", "fault",
                node=self._node, actor="app",
                lost_block_requests=lost_io,
            )
            self.obs.registry.counter("faults.client_deaths").inc()
        return lost_io
