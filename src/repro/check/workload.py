"""The checker's workload: small, hot, and protocol-complete.

Benchmark personalities (xcdn, varmail) are tuned for the paper's
figures; the checker instead wants a workload that exercises *every*
transition point quickly -- rewrites of the same pages (dedup merges in
the commit queue), appends (fresh allocations and delegation grants),
fsyncs (expedited writeback and sync commits), and create/unlink churn
(namespace ops beyond commits) -- all within a few hundred simulated
milliseconds so thousands of schedules stay cheap.
"""

from __future__ import annotations

import typing as _t

from repro.workloads.spec import Workload, WorkloadContext, timed

__all__ = ["CheckWorkload"]

KIB = 1024


class CheckWorkload(Workload):
    """Create/rewrite/append/fsync/unlink mix over a tiny file set."""

    name = "check"
    threads_per_client = 2
    think_time = 0.0002

    files_per_client = 2
    io_size = 16 * KIB
    #: Appends wrap back to offset 0 past this point, turning into
    #: rewrites of committed ranges (the in-place commit path).
    wrap_size = 256 * KIB
    #: Cumulative roll thresholds of append, rewrite, fsync and create;
    #: a roll above the last unlinks the oldest scratch file.
    mix = (0.45, 0.75, 0.85, 0.95)
    #: Scratch files at which an op unlinks one without rolling
    #: (``None``: no cap).
    scratch_cap: _t.Optional[int] = None

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        files: _t.List[_t.Dict[str, int]] = []
        for _ in range(self.files_per_client):
            name = ctx.unique_name("chk")
            file_id = yield from ctx.fs.create(name)
            yield from ctx.fs.write(file_id, 0, self.io_size)
            files.append({"id": file_id, "cursor": self.io_size})
        ctx.state["files"] = files
        ctx.state["scratch"] = []

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        files = ctx.state["files"]
        entry = files[
            (thread_id + ctx.state.setdefault("rr", 0)) % len(files)
        ]
        ctx.state["rr"] += 1
        scratch = ctx.state["scratch"]
        size = self.io_size
        append, rewrite, fsync, create = self.mix
        if self.scratch_cap is not None and len(scratch) >= self.scratch_cap:
            roll = 1.0  # a full scratch population unlinks, drawing nothing
        else:
            roll = ctx.rng.random()
        if roll < append:
            # Append at the cursor (wrapping): allocation + commit.
            offset = entry["cursor"] % self.wrap_size
            yield from timed(
                ctx, "write", ctx.fs.write(entry["id"], offset, size), size
            )
            entry["cursor"] = offset + size
        elif roll < rewrite:
            # Rewrite a committed range: dedup merge / in-place commit.
            limit = max(entry["cursor"] - size, 0)
            offset = int(ctx.rng.random() * (limit // size + 1)) * size
            yield from timed(
                ctx, "write", ctx.fs.write(entry["id"], offset, size), size
            )
        elif roll < fsync:
            yield from timed(ctx, "fsync", ctx.fs.fsync(entry["id"]))
        elif roll < create or not scratch:
            # Create a scratch file and give it one write.
            name = ctx.unique_name("scratch")
            file_id = yield from timed(ctx, "create", ctx.fs.create(name))
            yield from timed(
                ctx, "write", ctx.fs.write(file_id, 0, size), size
            )
            scratch.append(file_id)
        else:
            yield from timed(ctx, "unlink", ctx.fs.unlink(scratch.pop(0)))
        yield from self.think(ctx)
