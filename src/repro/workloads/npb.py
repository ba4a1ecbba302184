"""An NPB BT-IO-like parallel workload (§V.B / §V.C).

"NPB (NAS Parallel Benchmarks) consists of several scientific
applications using MPI.  We use BT (Block-Tridiagonal) for evaluating
parallel I/O. ...  For NPB benchmark, written data is read out into
memory to verify the correctness at the end of the program.  The read
operations may include those requests that haven't been committed, and
these read operations are known as conflict operations."

Model: every client is one MPI rank.  Each iteration performs a compute
phase (think time standing in for the BT solver step), then appends one
large slab to the rank's output file; every ``steps_per_barrier``
iterations the ranks synchronise on a barrier (MPI collective I/O
rhythm).  At the end of the run the rank reads its entire output back --
the conflict reads: under delayed commit some of that data may still be
awaiting its metadata commit, and the read must still return correct
data (served from the client cache / after commit) with no performance
cliff.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernel.events import Event
from repro.workloads.spec import Workload, WorkloadContext, timed


class _Barrier:
    """A reusable MPI-style barrier across all participating ranks."""

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self._waiting: _t.List[Event] = []

    def arrive(self, env) -> Event:
        ev = Event(env)
        self._waiting.append(ev)
        if len(self._waiting) >= self.parties:
            waiters, self._waiting = self._waiting, []
            for w in waiters:
                w.succeed()
        return ev


class NpbBtIoWorkload(Workload):
    """BT-IO-like: compute, append large slabs, barrier, verify."""

    name = "npb-bt"
    threads_per_client = 1  # one MPI rank per node
    # Ranks synchronise on an all-parties barrier: multiplexing two
    # ranks onto one thread would park one inside the other's collective
    # wait and deadlock it, so BT-IO refuses aggregate nodes.
    aggregatable = False
    think_time = 0.0

    def __init__(
        self,
        slab_size: int = 1024 * 1024,
        steps_per_barrier: int = 2,
        compute_time: float = 0.050,
        verify_read_size: int = 1024 * 1024,
        strided_pieces: int = 2,
    ) -> None:
        self.slab_size = slab_size
        self.steps_per_barrier = steps_per_barrier
        self.compute_time = compute_time
        self.verify_read_size = verify_read_size
        #: On systems without MPI-IO collective buffering, each slab is
        #: issued as this many separate sub-writes (BT's output is
        #: strided; only a collective driver aggregates it).
        self.strided_pieces = strided_pieces

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        file_id = yield from ctx.fs.create(
            f"npb/rank{ctx.client_index}.out"
        )
        ctx.state["file_id"] = file_id
        ctx.state["offset"] = 0
        ctx.state["step"] = 0
        ctx.shared.setdefault("barrier", _Barrier(ctx.num_clients))

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        # Compute phase (the BT solver step).
        if self.compute_time > 0:
            start = ctx.env.now
            yield ctx.env.timeout(self.compute_time)
            if ctx.measuring:
                ctx.metrics.record(
                    "compute", ctx.env.now - start, 0, now=ctx.env.now
                )
        # Append one slab.  A collective MPI-IO driver aggregates the
        # rank's strided records into one large write; other systems see
        # the records individually.
        file_id = ctx.state["file_id"]
        offset = ctx.state["offset"]
        if getattr(ctx.fs, "supports_collective_io", False):
            yield from timed(
                ctx,
                "write",
                ctx.fs.write(file_id, offset, self.slab_size),
                nbytes=self.slab_size,
            )
        else:
            piece = self.slab_size // self.strided_pieces
            for j in range(self.strided_pieces):
                yield from timed(
                    ctx,
                    "write",
                    ctx.fs.write(file_id, offset + j * piece, piece),
                    nbytes=piece,
                )
        ctx.state["offset"] = offset + self.slab_size
        ctx.state["step"] += 1
        # Collective rhythm: barrier, MPI_File_sync (the written epoch
        # must be durable), then the verification read-back.
        if ctx.state["step"] % self.steps_per_barrier == 0:
            barrier: _Barrier = ctx.shared["barrier"]
            yield from timed(ctx, "barrier", self._wait(ctx, barrier))
            yield from timed(ctx, "sync", ctx.fs.fsync(file_id))
            yield from self.verify(ctx)

    @staticmethod
    def _wait(ctx: WorkloadContext, barrier: _Barrier) -> _t.Generator:
        yield barrier.arrive(ctx.env)

    def verify(self, ctx: WorkloadContext) -> _t.Generator:
        """Read the written data back (the conflict operations)."""
        file_id = ctx.state["file_id"]
        end = ctx.state["offset"]
        read = 0
        cursor = max(0, end - self.steps_per_barrier * self.slab_size)
        while cursor < end:
            chunk = min(self.verify_read_size, end - cursor)
            yield from timed(
                ctx,
                "verify-read",
                ctx.fs.read(file_id, cursor, chunk),
                nbytes=chunk,
            )
            cursor += chunk
            read += chunk
        return read
