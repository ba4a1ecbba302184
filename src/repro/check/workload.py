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

from repro.workloads.spec import Workload, WorkloadContext

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
        roll = ctx.rng.random()
        if roll < 0.45:
            # Append at the cursor (wrapping): allocation + commit.
            offset = entry["cursor"] % self.wrap_size
            yield from ctx.fs.write(entry["id"], offset, self.io_size)
            entry["cursor"] = offset + self.io_size
        elif roll < 0.75:
            # Rewrite a committed range: dedup merge / in-place commit.
            limit = max(entry["cursor"] - self.io_size, 0)
            offset = (
                int(ctx.rng.random() * (limit // self.io_size + 1))
                * self.io_size
            )
            yield from ctx.fs.write(entry["id"], offset, self.io_size)
        elif roll < 0.85:
            yield from ctx.fs.fsync(entry["id"])
        elif roll < 0.95 or not ctx.state["scratch"]:
            # Create a scratch file and give it one write.
            name = ctx.unique_name("scratch")
            file_id = yield from ctx.fs.create(name)
            yield from ctx.fs.write(file_id, 0, self.io_size)
            ctx.state["scratch"].append(file_id)
        else:
            file_id = ctx.state["scratch"].pop(0)
            yield from ctx.fs.unlink(file_id)
        yield from self.think(ctx)
