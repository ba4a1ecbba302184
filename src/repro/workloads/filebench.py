"""Filebench personalities (§V.B): fileserver, varmail, webproxy.

"Fileserver, varmail, webproxy are three typical workloads emulating file
servers hosting files, the mail server, and the web proxy server."

Each class follows the published Filebench flowlet structure, scaled down
(fewer seed files, shorter runs) so a simulation finishes in seconds; the
*ratios* between operations match the personality definitions.
"""

from __future__ import annotations

import typing as _t

from repro.workloads.spec import Workload, WorkloadContext, timed


class FileserverWorkload(Workload):
    """Filebench *fileserver*: whole-file writes/reads, appends, deletes.

    Flowlet: create+write a whole file, open+append, open+read a whole
    file, delete a file, stat -- weighted toward data operations.
    """

    name = "fileserver"
    threads_per_client = 4
    think_time = 0.0003

    def __init__(
        self,
        mean_file_size: int = 64 * 1024,
        append_size: int = 16 * 1024,
        seed_files_per_client: int = 30,
    ) -> None:
        self.mean_file_size = mean_file_size
        self.append_size = append_size
        self.seed_files_per_client = seed_files_per_client
        # The real personality's file set dwarfs node memory; scale the
        # caches so the hit rate, not the namespace, is what carries over.
        self.recommended_cache_capacity = max(
            4 * mean_file_size,
            seed_files_per_client * mean_file_size // 4,
        )

    def _draw_size(self, ctx: WorkloadContext) -> int:
        # Filebench uses a gamma-ish distribution; a clipped lognormal
        # reproduces the "mostly small, occasionally large" shape.
        size = int(ctx.rng.lognormal(0.0, 0.8) * self.mean_file_size)
        return max(4096, min(size, 8 * self.mean_file_size))

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        for _ in range(self.seed_files_per_client):
            size = self._draw_size(ctx)
            file_id = yield from ctx.fs.create(ctx.unique_name("fsrv"))
            yield from ctx.fs.write(file_id, 0, size, scattered=True)
            yield from ctx.fs.fsync(file_id)
            self.register_file(ctx, file_id, size)
        ctx.fs.cache.drop_volatile()

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        roll = ctx.rng.random()
        if roll < 0.33:
            yield from self._create_write(ctx)
        elif roll < 0.55:
            yield from self._append(ctx)
        elif roll < 0.85:
            yield from self._read_whole(ctx)
        elif roll < 0.93:
            yield from self._delete(ctx)
        else:
            yield from self._stat(ctx)
        yield from self.think(ctx)

    def _create_write(self, ctx: WorkloadContext) -> _t.Generator:
        size = self._draw_size(ctx)
        file_id = yield from timed(
            ctx, "create", ctx.fs.create(ctx.unique_name("fsrv"))
        )
        yield from timed(
            ctx, "write", ctx.fs.write(file_id, 0, size), nbytes=size
        )
        yield from timed(ctx, "close", ctx.fs.close(file_id))
        self.register_file(ctx, file_id, size)

    def _append(self, ctx: WorkloadContext) -> _t.Generator:
        entry = self.pick_file(ctx)
        if entry is None:
            return
        _, file_id, size = entry
        yield from timed(
            ctx,
            "append",
            ctx.fs.write(file_id, size, self.append_size),
            nbytes=self.append_size,
        )

    def _read_whole(self, ctx: WorkloadContext) -> _t.Generator:
        # Whole-file reads sample the personality's large cold file set.
        entry = self.pick_file(ctx, seeds_only=True)
        if entry is None:
            return
        _, file_id, size = entry
        yield from timed(
            ctx, "read", ctx.fs.read(file_id, 0, size), nbytes=size
        )

    def _delete(self, ctx: WorkloadContext) -> _t.Generator:
        mine = self.registry(ctx).own(ctx.client_index)
        if not mine:
            return
        entry = ctx.rng.choice(mine)
        self.unregister_file(ctx, entry)
        yield from timed(ctx, "delete", ctx.fs.unlink(entry[1]))

    def _stat(self, ctx: WorkloadContext) -> _t.Generator:
        entry = self.pick_file(ctx)
        if entry is None:
            return
        yield from timed(ctx, "stat", ctx.fs.stat(entry[1]))


class VarmailWorkload(Workload):
    """Filebench *varmail*: the fsync-heavy mail-server personality.

    Flowlet per iteration: delete an old mail, compose (create + write +
    fsync), re-read a mail then append-and-fsync (marking it read), and a
    plain read -- /var/mail semantics where durability matters.
    """

    name = "varmail"
    threads_per_client = 4
    think_time = 0.0003

    def __init__(
        self,
        mean_mail_size: int = 16 * 1024,
        seed_files_per_client: int = 30,
    ) -> None:
        self.mean_mail_size = mean_mail_size
        self.seed_files_per_client = seed_files_per_client
        self.recommended_cache_capacity = max(
            4 * mean_mail_size,
            seed_files_per_client * mean_mail_size // 4,
        )

    def _draw_size(self, ctx: WorkloadContext) -> int:
        size = int(ctx.rng.lognormal(0.0, 0.6) * self.mean_mail_size)
        return max(2048, min(size, 4 * self.mean_mail_size))

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        for _ in range(self.seed_files_per_client):
            size = self._draw_size(ctx)
            file_id = yield from ctx.fs.create(ctx.unique_name("mail"))
            yield from ctx.fs.write(file_id, 0, size, scattered=True)
            yield from ctx.fs.fsync(file_id)
            self.register_file(ctx, file_id, size)
        ctx.fs.cache.drop_volatile()

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        yield from self._delete_one(ctx)
        yield from self._compose(ctx)
        yield from self._read_append_sync(ctx)
        yield from self._read_one(ctx)
        yield from self.think(ctx)

    def _delete_one(self, ctx: WorkloadContext) -> _t.Generator:
        # Only reap runtime mail; the seeded corpus stands in for the
        # huge long-lived mail store and must survive.
        mine = self.registry(ctx).own(ctx.client_index, runtime_only=True)
        if len(mine) <= self.seed_files_per_client // 2:
            return  # keep the mailbox from draining
        entry = ctx.rng.choice(mine)
        self.unregister_file(ctx, entry)
        yield from timed(ctx, "delete", ctx.fs.unlink(entry[1]))

    def _compose(self, ctx: WorkloadContext) -> _t.Generator:
        size = self._draw_size(ctx)
        file_id = yield from timed(
            ctx, "create", ctx.fs.create(ctx.unique_name("mail"))
        )
        yield from timed(
            ctx, "write", ctx.fs.write(file_id, 0, size), nbytes=size
        )
        yield from timed(ctx, "fsync", ctx.fs.fsync(file_id))
        yield from timed(ctx, "close", ctx.fs.close(file_id))
        self.register_file(ctx, file_id, size)

    def _read_append_sync(self, ctx: WorkloadContext) -> _t.Generator:
        # Re-reading an arbitrary mailbox: the mail store is far larger
        # than memory, so sample the cold corpus.
        entry = self.pick_file(ctx, seeds_only=True)
        if entry is None:
            return
        _, file_id, size = entry
        yield from timed(
            ctx, "read", ctx.fs.read(file_id, 0, size), nbytes=size
        )
        append = 2048
        yield from timed(
            ctx,
            "append",
            ctx.fs.write(file_id, size, append),
            nbytes=append,
        )
        yield from timed(ctx, "fsync", ctx.fs.fsync(file_id))

    def _read_one(self, ctx: WorkloadContext) -> _t.Generator:
        entry = self.pick_file(ctx, seeds_only=True)
        if entry is None:
            return
        _, file_id, size = entry
        yield from timed(
            ctx, "read", ctx.fs.read(file_id, 0, size), nbytes=size
        )


class WebproxyWorkload(Workload):
    """Filebench *webproxy*: read-dominated with steady small ingest.

    Flowlet: delete + create + write one cached object, then five reads
    of random objects -- the classic 5:1 read bias of the personality.
    """

    name = "webproxy"
    threads_per_client = 4
    think_time = 0.0003

    def __init__(
        self,
        mean_object_size: int = 16 * 1024,
        seed_files_per_client: int = 40,
        reads_per_write: int = 5,
    ) -> None:
        self.mean_object_size = mean_object_size
        self.seed_files_per_client = seed_files_per_client
        self.reads_per_write = reads_per_write
        self.recommended_cache_capacity = max(
            4 * mean_object_size,
            seed_files_per_client * mean_object_size // 4,
        )

    def _draw_size(self, ctx: WorkloadContext) -> int:
        size = int(ctx.rng.lognormal(0.0, 0.7) * self.mean_object_size)
        return max(2048, min(size, 4 * self.mean_object_size))

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        for _ in range(self.seed_files_per_client):
            size = self._draw_size(ctx)
            file_id = yield from ctx.fs.create(ctx.unique_name("proxy"))
            yield from ctx.fs.write(file_id, 0, size, scattered=True)
            yield from ctx.fs.fsync(file_id)
            self.register_file(ctx, file_id, size)
        ctx.fs.cache.drop_volatile()

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        # Replace one cache entry (runtime objects only; the seed corpus
        # models the long tail and persists).
        mine = self.registry(ctx).own(ctx.client_index, runtime_only=True)
        if len(mine) > self.seed_files_per_client:
            entry = ctx.rng.choice(mine)
            self.unregister_file(ctx, entry)
            yield from timed(ctx, "delete", ctx.fs.unlink(entry[1]))
        size = self._draw_size(ctx)
        file_id = yield from timed(
            ctx, "create", ctx.fs.create(ctx.unique_name("proxy"))
        )
        yield from timed(
            ctx, "write", ctx.fs.write(file_id, 0, size), nbytes=size
        )
        yield from timed(ctx, "close", ctx.fs.close(file_id))
        self.register_file(ctx, file_id, size)
        # Serve five objects from the cold proxy corpus.
        for _ in range(self.reads_per_write):
            entry = self.pick_file(ctx, prefer_remote=True, seeds_only=True)
            if entry is None:
                continue
            _, fid, fsize = entry
            yield from timed(
                ctx, "read", ctx.fs.read(fid, 0, fsize), nbytes=fsize
            )
        yield from self.think(ctx)
