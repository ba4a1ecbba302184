"""Smoke's finite script: create, write, overwrite, fsync, unlink.

Each client creates ``files_per_client`` files named
``c{client_index + 1}-f{i}``, writes each whole, overwrites the first
half of every third one (extent displacement and the in-place commit
rule), fsyncs each, then unlinks every fourth.  The script is the
workload's :meth:`setup` and ``threads_per_client = 0``, so a driver's
op phase spawns nothing and the run ends with the set-ups: the same
class runs on a simulated cluster and on live clients.

``ctx.shared["expect"]`` holds the run's bookkeeping, file id -> size
for every file the clients left behind: what the durable namespaces
must hold once the run is over.
"""

from __future__ import annotations

import typing as _t

from repro.workloads.spec import Workload, WorkloadContext

__all__ = ["SmokeWorkload"]


class SmokeWorkload(Workload):
    """A finite per-client script whose durable outcome is known."""

    name = "smoke"
    threads_per_client = 0

    def __init__(
        self, files_per_client: int = 6, file_size: int = 32 * 1024
    ) -> None:
        self.files_per_client = files_per_client
        self.file_size = file_size

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        expect = ctx.shared.setdefault("expect", {})
        fs, size = ctx.fs, self.file_size
        file_ids: _t.List[int] = []
        for index in range(self.files_per_client):
            file_id = yield from fs.create(f"c{ctx.client_index + 1}-f{index}")
            file_ids.append(file_id)
            yield from fs.write(file_id, 0, size)
            expect[file_id] = size
            if index % 3 == 0:
                yield from fs.write(file_id, 0, size // 2)
            yield from fs.fsync(file_id)
        for index, file_id in enumerate(file_ids):
            if index % 4 == 3:
                yield from fs.unlink(file_id)
                del expect[file_id]
