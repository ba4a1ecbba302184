"""Mechanical disk model and the shared disk-array server.

The array is the one the paper's clients reach over 4 Gb Fibre Channel:
a RAID of several **spindles** behind one controller.  The flat volume
address space is striped across the spindles; each spindle services at
most one request at a time, so the array sustains ``num_spindles``
concurrent operations -- the parallelism a real FC array provides.

Service of a dispatched request decomposes, as in Fig. 1, into::

    seek time + rotational delay + transfer time

per spindle, with the seek component a concave (square-root) function of
that spindle's head travel.  Requests sequential with the spindle's
previous one pay neither seek nor rotation -- which is exactly why the
merging and space-delegation techniques of the paper help: they turn
many scattered small operations into few sequential large ones.

Each spindle arbitrates round-robin across the per-client elevator
queues (FC fairness), picking only requests whose addresses stripe onto
it.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.util.rng import StreamRNG
from repro.storage.blktrace import BlkTrace
from repro.storage.scheduler import (
    READ,
    WRITE,
    BlockRequest,
    ElevatorScheduler,
)
from repro.util.intervals import BatchedIntervalSet

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


@dataclass(frozen=True)
class DiskParameters:
    """Mechanical and channel characteristics of the shared array.

    Defaults approximate the paper's FC disk array: four spindles behind
    a 4 Gb FC fabric, each sustaining ~90 MB/s sequentially with
    single-digit-millisecond seeks (7200 RPM class drives).
    """

    #: Flat volume capacity in bytes (address space for allocation).
    volume_size: int = 64 * 1024 * 1024 * 1024
    #: Number of spindles the volume is striped across.  FC arrays of
    #: the paper's era held shelves of drives; sixteen keeps the
    #: simulated array from becoming the universal bottleneck the real
    #: one wasn't.
    num_spindles: int = 16
    #: RAID-0 stripe unit in bytes.  Logical addresses rotate across
    #: spindles every stripe; each spindle's own stripes are physically
    #: contiguous (see :meth:`spindle_local`), so a logically sequential
    #: stream is sequential on every spindle it touches.  Small enough
    #: that one client's active write region does not pin one spindle.
    stripe: int = 256 * 1024
    #: Sustained sequential transfer rate per spindle, bytes/second.
    transfer_rate: float = 90e6
    #: Fixed cost of any non-sequential repositioning (settle), seconds.
    seek_base: float = 0.0008
    #: Additional full-stroke seek cost, seconds; scaled by sqrt(distance).
    seek_max_extra: float = 0.0075
    #: One rotation period, seconds (7200 RPM); average wait is half.
    rotation_period: float = 0.00833
    #: Per-request controller/command overhead, seconds.
    command_overhead: float = 0.00005
    #: Accesses within this distance of the head ride the track buffer /
    #: short-seek optimisation: rotation cost is quartered.  Clustered
    #: writes (nearby allocation) are much cheaper than far seeks.
    near_threshold: int = 1024 * 1024
    #: Block-layer write plugging: an *async* (writeback) write is held
    #: this long so contiguous submissions can merge into it before
    #: dispatch, standing in for the kernel's periodic-writeback
    #: batching.  Sync writes and reads are never plugged.
    write_plug: float = 0.012

    def seek_time(self, distance: int) -> float:
        """Head travel time for a move of ``distance`` bytes."""
        if distance <= 0:
            return 0.0
        frac = min(1.0, distance / self.volume_size)
        return self.seek_base + self.seek_max_extra * (frac**0.5)

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.transfer_rate

    def spindle_of(self, address: int) -> int:
        """Owning spindle of a volume address.

        Within each *row* (one stripe per spindle) the stripe-to-spindle
        assignment is rotated by a per-row hash.  Plain modulo striping
        would align every power-of-two-sized allocation (16 MB delegated
        chunks, 8 GB allocation groups) onto spindle 0 and turn one
        spindle into a hotspot; rotated striping -- as real array
        controllers do -- spreads them.
        """
        n = self.num_spindles
        row = address // (self.stripe * n)
        idx = (address // self.stripe) % n
        return (idx + _row_rotation(row)) % n

    def spindle_local(self, address: int) -> int:
        """Physical address on the owning spindle.

        Every row places exactly one of its stripes on each spindle
        (rotation permutes, never doubles up), so stripe rows pack
        contiguously on each spindle's platters -- the standard RAID-0
        layout.  Seek distances are computed in this space, which is why
        a logically sequential stream costs no seeks even though it
        rotates across spindles.
        """
        full_rows = address // (self.stripe * self.num_spindles)
        return full_rows * self.stripe + (address % self.stripe)


def _row_rotation(row: int) -> int:
    """Deterministic per-row rotation; mixes bits so power-of-two row
    indices do not collapse onto one rotation value."""
    h = row ^ (row >> 3)
    h = (h * 0x9E3779B1) & 0xFFFFFFFF
    return h >> 16


class DiskArray:
    """The shared multi-spindle disk array serving every client's queue.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Mechanical model parameters.
    rng:
        Stream for rotational-latency draws.
    trace:
        Optional :class:`~repro.storage.blktrace.BlkTrace` collector.
    """

    def __init__(
        self,
        env: "Effects",
        params: DiskParameters,
        rng: StreamRNG,
        trace: _t.Optional[BlkTrace] = None,
    ) -> None:
        if params.num_spindles <= 0:
            raise ValueError(f"need at least one spindle: {params}")
        self.env = env
        self.params = params
        #: The striping function bound once: ``params.spindle_of``
        #: manufactures a fresh bound method per attribute access, which
        #: defeats both the per-call cost and the schedulers' identity
        #: check on their installed spindle map.
        self._spindle_of = params.spindle_of
        self.rng = rng
        self.trace = trace
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self._schedulers: _t.List[ElevatorScheduler] = []
        n = params.num_spindles
        self._heads = [0] * n  # logical, for C-LOOK ordering
        self._local_heads = [0] * n  # physical, for seek distances
        self._rr_index = [0] * n
        #: Consecutive reads served per spindle (write-starvation bound).
        self._read_streak = [0] * n
        #: Serve at most this many reads in a row while writes wait (the
        #: Linux deadline scheduler's ``writes_starved`` knob).  One
        #: alternates read and write rounds whenever both are pending,
        #: bounding how long a synchronous writer or a reader can stall
        #: behind the other class.
        self.write_starvation_limit = 1
        #: Per spindle: have its queued requests changed since its last
        #: poll?  An idle spindle with the flag clear knows, without
        #: looking, that no queue holds anything new for it.
        self._changed = [True] * n
        self._wakeups = [env.event() for _ in range(n)]
        #: How many of ``_wakeups`` are untriggered (a spindle asleep
        #: on it, or not yet started): zero means every spindle is
        #: busy and a submission has nobody to wake.
        self._armed = n
        self._processes = [
            env.process(self._serve(spindle), name=f"spindle-{spindle}")
            for spindle in range(n)
        ]
        #: Totals across the run.
        self.ops_served = 0
        self.bytes_served = 0
        self.busy_time = 0.0
        #: Volume ranges whose data is durable (ground truth for the
        #: ordered-writes invariant checker).  A write becomes stable only
        #: when its service completes; queued/in-flight writes are lost on
        #: a crash.  Completed writes are folded in sorted batches (see
        #: :class:`~repro.util.intervals.BatchedIntervalSet`).
        self.stable = BatchedIntervalSet()
        #: Requests dispatched to a spindle whose service has not yet
        #: completed (at most one per spindle).  These sit on the lost
        #: side of the crash boundary together with queued requests.
        self.in_flight: _t.List[BlockRequest] = []
        #: Per-``(client, shard)`` fence generation (DESIGN §8).  A
        #: WRITE whose ``write_generation`` is below its client's entry
        #: for the shard owning its volume range is rejected at command
        #: level -- the persistent-reservation fencing that makes lease
        #: reclamation safe against a reclaimed-but-alive client still
        #: flushing writeback.  A single-MDS deployment only ever uses
        #: shard 0.
        self.fence_generations: _t.Dict[_t.Tuple[int, int], int] = {}
        self.fenced_writes = 0
        #: Metadata-shard slicing of the volume: shard ``k`` owns
        #: ``[k * slice, (k+1) * slice)``.  One shard (the default)
        #: means every offset maps to shard 0.
        self._num_shards = 1
        self._shard_slice_size = 0

    def configure_shards(self, num_shards: int, slice_size: int) -> None:
        """Install the shard -> volume-slice map (sharded metadata)."""
        if num_shards < 1 or (num_shards > 1 and slice_size <= 0):
            raise ValueError(
                f"bad shard geometry: {num_shards} x {slice_size}"
            )
        self._num_shards = num_shards
        self._shard_slice_size = slice_size

    def shard_of_offset(self, offset: int) -> int:
        """Metadata shard owning a volume offset (0 when unsharded)."""
        if self._num_shards == 1:
            return 0
        return min(
            self._num_shards - 1, offset // self._shard_slice_size
        )

    def fence(self, client_id: int, shard: int = 0) -> int:
        """Revoke ``client_id``'s write access on ``shard``'s slice.

        Called by the shard's lease garbage collector after reclaiming
        the client's uncommitted space; every data write the client
        issued before learning of the revocation (it may be alive
        behind a partition) now bounces off the array instead of
        landing on possibly re-allocated blocks.  Returns the new
        generation.
        """
        key = (client_id, shard)
        gen = self.fence_generations.get(key, 0) + 1
        self.fence_generations[key] = gen
        if self.obs is not None:
            self.obs.tracer.instant(
                "array_fence", "fault", node="array", actor="array",
                client=client_id, shard=shard, generation=gen,
            )
            self.obs.registry.counter("array.fences").inc()
        return gen

    def write_fenced(self, request: BlockRequest) -> bool:
        """Whether ``request`` is a WRITE behind its client's fence."""
        if request.op != WRITE:
            return False
        shard = self.shard_of_offset(request.start)
        return request.write_generation < self.fence_generations.get(
            (request.client_id, shard), 0
        )

    # -- wiring ---------------------------------------------------------------

    def attach(self, scheduler: ElevatorScheduler) -> None:
        """Register a client's elevator queue with the array."""
        scheduler.on_submit = self._notify
        scheduler.on_drop = self._mark_changed
        scheduler.set_spindle_map(self._spindle_of)
        self._schedulers.append(scheduler)
        # The queue may arrive with requests already in it.
        self._mark_changed(range(self.params.num_spindles))

    def _mark_changed(self, spindles: _t.Iterable[int]) -> None:
        for spindle in spindles:
            self._changed[spindle] = True

    def _notify(self, spindles: _t.Iterable[int]) -> None:
        """Some queue changed what it holds for ``spindles``.

        Every idle spindle is woken, not just those: which events exist
        and in what order is part of the model's observable behaviour
        (see DESIGN 2.2).  The untouched ones go back to sleep without
        polling.  With every spindle busy there is nothing to wake and
        the walk is skipped.
        """
        self._mark_changed(spindles)
        if not self._armed:
            return
        for wakeup in self._wakeups:
            if not wakeup.triggered:
                wakeup.succeed()
        self._armed = 0

    # -- service loops -----------------------------------------------------------

    def _pop_rr(self, spindle: int, op: str) -> _t.Optional[BlockRequest]:
        """One round-robin pass over the client queues holding ``op``
        requests for ``spindle``."""
        schedulers = self._schedulers
        n = len(schedulers)
        head = self._heads[spindle]
        write_plug = self.params.write_plug
        base = self._rr_index[spindle]
        for offset in range(n):
            idx = (base + offset) % n
            scheduler = schedulers[idx]
            if not scheduler.has_request_for_spindle(spindle, op):
                continue
            request = scheduler.pop_next_for_spindle(
                head, spindle, op=op, write_plug=write_plug
            )
            if request is not None:
                self._rr_index[spindle] = (idx + 1) % n
                return request
        return None

    def _next_request(
        self, spindle: int
    ) -> _t.Optional[BlockRequest]:
        """Deadline-scheduler pick: prefer reads, bound write starvation.

        Synchronous reads block applications while queued writes are
        asynchronous writeback, so reads go first -- except after
        ``write_starvation_limit`` consecutive reads, when one write
        round is forced.
        """
        writes_first = (
            self._read_streak[spindle] >= self.write_starvation_limit
        )
        if writes_first:
            request = self._pop_rr(spindle, WRITE)
            if request is not None:
                self._read_streak[spindle] = 0
                return request
        request = self._pop_rr(spindle, READ)
        if request is not None:
            self._read_streak[spindle] += 1
            return request
        if not writes_first:
            request = self._pop_rr(spindle, WRITE)
            if request is not None:
                self._read_streak[spindle] = 0
        return request

    def _oldest_plugged_submit(self, spindle: int) -> _t.Optional[float]:
        oldest: _t.Optional[float] = None
        for scheduler in self._schedulers:
            submit = scheduler.oldest_plugged_submit(spindle)
            if submit is not None and (oldest is None or submit < oldest):
                oldest = submit
        return oldest

    def _serve(self, spindle: int) -> _t.Generator:
        env = self.env
        write_plug = self.params.write_plug
        changed = self._changed
        wakeups = self._wakeups
        while True:
            changed[spindle] = False
            request = self._next_request(spindle)
            if request is None:
                # Nothing dispatchable.  Sleep until a new submission
                # arrives -- or, if plugged writes are pending, until the
                # oldest unplugs, whichever comes first (a newly arrived
                # sync request must not wait out a write plug).  Only a
                # change to this spindle's requests or that plug running
                # out can make the next poll find something, so every
                # other wake-up re-arms the same timer and sleeps on.
                oldest = self._oldest_plugged_submit(spindle)
                while True:
                    if wakeups[spindle].triggered:
                        self._armed += 1
                    wakeup = wakeups[spindle] = env.event()
                    if oldest is not None:
                        plug_ready = oldest + write_plug
                        delay = max(0.0, plug_ready - env.now) + 1e-9
                        yield env.any_of([env.timeout(delay), wakeup])
                        # The elevator's own plug test, so both agree
                        # on the instant the write becomes dispatchable.
                        if not env.now - oldest < write_plug:
                            break
                    else:
                        yield wakeup
                    if changed[spindle]:
                        break
                continue

            fenced = self.write_fenced(request)
            if fenced:
                # Rejected at command level: the controller validates the
                # reservation before any mechanical work, so the request
                # pays only command overhead, moves no head, and -- the
                # point of fencing -- never reaches the platters.
                service = self.params.command_overhead
                seek_distance = 0
            else:
                service, seek_distance = self.service_time(
                    spindle, request
                )
            # Dispatched but not yet durable: if the cluster dies now,
            # this request is lost (crash_cluster counts it alongside
            # still-queued requests).  It leaves in_flight only after its
            # service completes and writes are in the stable set.
            self.in_flight.append(request)
            dispatch_span = None
            if self.obs is not None:
                dispatch_span = self.obs.tracer.begin(
                    "disk_dispatch",
                    "blk",
                    node="array",
                    actor=f"spindle-{spindle}",
                    update_ids=request.trace_updates(),
                    op=request.op,
                    start=request.start,
                    length=request.length,
                    seek=seek_distance,
                    client=request.client_id,
                )
            start = env.now
            yield env.timeout(service)
            self.busy_time += env.now - start

            if fenced:
                self.fenced_writes += 1
                if self.obs is not None:
                    self.obs.tracer.instant(
                        "write_fenced", "fault", node="array",
                        actor=f"spindle-{spindle}",
                        update_ids=request.trace_updates(),
                        client=request.client_id,
                        start=request.start,
                        length=request.length,
                    )
                    self.obs.registry.counter("array.fenced_writes").inc()
                if dispatch_span is not None:
                    self.obs.tracer.end(dispatch_span, fenced=True)
                self.in_flight.remove(request)
                # The completion still fires (the command returned, with
                # an error status); the client side of error handling is
                # out of scope -- what matters is the data never landed.
                request.complete_all()
                continue

            self._heads[spindle] = request.end
            self._local_heads[spindle] = (
                self.params.spindle_local(request.end - 1) + 1
            )
            self.ops_served += 1
            self.bytes_served += request.length
            if request.op == WRITE:
                self.stable.add(request.start, request.end)
            if self.trace is not None:
                self.trace.record(
                    time=env.now,
                    op=request.op,
                    start=request.start,
                    length=request.length,
                    seek_distance=seek_distance,
                    client_id=request.client_id,
                    queued=request.count_all(),
                )
            if dispatch_span is not None:
                self.obs.tracer.end(dispatch_span)
            self.in_flight.remove(request)
            request.complete_all()

    def service_time(
        self, spindle: int, request: BlockRequest
    ) -> _t.Tuple[float, int]:
        """Return (service seconds, seek distance bytes) for ``request``.

        The seek distance is measured in the spindle's local (physical)
        address space; heads are tracked logically (for C-LOOK ordering)
        and mapped here.
        """
        distance = abs(
            self.params.spindle_local(request.start)
            - self._local_heads[spindle]
        )
        service = self.params.command_overhead + self.params.transfer_time(
            request.length
        )
        if distance > 0:
            service += self.params.seek_time(distance)
            rotation = self.params.rotation_period
            if distance < self.params.near_threshold:
                rotation /= 4.0  # track buffer / short-seek optimisation
            service += self.rng.uniform(0.0, rotation)
        return service, distance

    @property
    def head_position(self) -> int:
        """Head of spindle 0 (kept for single-spindle tests)."""
        return self._heads[0]

    @property
    def utilization(self) -> float:
        """Mean per-spindle busy fraction of elapsed virtual time."""
        if self.env.now <= 0:
            return 0.0
        return self.busy_time / (self.env.now * self.params.num_spindles)