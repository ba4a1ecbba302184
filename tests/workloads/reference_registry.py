"""Reference registry: the list scans the indexed registry replaced.

:class:`ScanningWorkload` keeps the shared file registry as the two
plain lists in ``ctx.shared`` that :class:`repro.workloads.spec.Workload`
kept before :class:`repro.workloads.spec.FileRegistry`: every remote
pick builds the list of other clients' entries, and an unregistration
searches both lists.  :class:`ScanningFileserver`,
:class:`ScanningVarmail` and :class:`ScanningWebproxy` keep the
personalities' own-file deletes as they were: a scan of the whole
registry for the client's entries and, for runtime-only deletes, an
``id`` set of every seed built on each call.  The differential tests
drive them and the production personalities through the same
operations and require the same answers.
"""

import typing as _t

from repro.workloads.filebench import (
    FileserverWorkload,
    VarmailWorkload,
    WebproxyWorkload,
)
from repro.workloads.spec import Workload, WorkloadContext, timed


class ScanningWorkload(Workload):
    """Same registry surface as ``Workload``; every view is a list."""

    @staticmethod
    def registry(ctx: WorkloadContext) -> _t.List[_t.Tuple[int, int, int]]:
        """The shared list of readable files: (client_index, file_id, size)."""
        return ctx.shared.setdefault("registry", [])

    @staticmethod
    def seed_registry(
        ctx: WorkloadContext,
    ) -> _t.List[_t.Tuple[int, int, int]]:
        """Files seeded during setup -- the cold long-tail namespace."""
        return ctx.shared.setdefault("seed_registry", [])

    @classmethod
    def register_file(
        cls, ctx: WorkloadContext, file_id: int, size: int
    ) -> None:
        entry = (ctx.client_index, file_id, size)
        cls.registry(ctx).append(entry)
        if ctx.in_setup:
            cls.seed_registry(ctx).append(entry)

    @classmethod
    def unregister_file(
        cls, ctx: WorkloadContext, entry: _t.Tuple[int, int, int]
    ) -> None:
        """Remove a deleted file from every registry view."""
        registry = cls.registry(ctx)
        if entry in registry:
            registry.remove(entry)
        seeds = cls.seed_registry(ctx)
        if entry in seeds:
            seeds.remove(entry)

    @classmethod
    def pick_file(
        cls,
        ctx: WorkloadContext,
        prefer_remote: bool = False,
        seeds_only: bool = False,
    ) -> _t.Optional[_t.Tuple[int, int, int]]:
        """Pick a random registered file.

        ``prefer_remote`` biases to files seeded by other clients
        (guaranteed local-cache misses); ``seeds_only`` restricts to the
        setup-time namespace, modelling reads scattered over a corpus far
        larger than any cache (the paper's 32 KB xcdn observation).
        """
        registry = (
            cls.seed_registry(ctx) if seeds_only else cls.registry(ctx)
        )
        if not registry:
            return None
        if prefer_remote:
            remote = [
                entry
                for entry in registry
                if entry[0] != ctx.client_index
            ]
            if remote:
                return ctx.rng.choice(remote)
        return ctx.rng.choice(registry)


class ScanningFileserver(ScanningWorkload, FileserverWorkload):
    """Fileserver whose delete scans the registry for its own files."""

    def _delete(self, ctx: WorkloadContext) -> _t.Generator:
        mine = [
            e for e in self.registry(ctx) if e[0] == ctx.client_index
        ]
        if not mine:
            return
        entry = ctx.rng.choice(mine)
        self.unregister_file(ctx, entry)
        yield from timed(ctx, "delete", ctx.fs.unlink(entry[1]))


class ScanningVarmail(ScanningWorkload, VarmailWorkload):
    """Varmail whose delete scans the registry for its runtime mail."""

    def _delete_one(self, ctx: WorkloadContext) -> _t.Generator:
        registry = self.registry(ctx)
        # Only reap runtime mail; the seeded corpus stands in for the
        # huge long-lived mail store and must survive.
        seeds = set(id(e) for e in self.seed_registry(ctx))
        mine = [
            e
            for e in registry
            if e[0] == ctx.client_index and id(e) not in seeds
        ]
        if len(mine) <= self.seed_files_per_client // 2:
            return  # keep the mailbox from draining
        entry = ctx.rng.choice(mine)
        self.unregister_file(ctx, entry)
        yield from timed(ctx, "delete", ctx.fs.unlink(entry[1]))


class ScanningWebproxy(ScanningWorkload, WebproxyWorkload):
    """Webproxy whose op scans the registry for its runtime objects."""

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        # Replace one cache entry (runtime objects only; the seed corpus
        # models the long tail and persists).
        seeds = set(id(e) for e in self.seed_registry(ctx))
        mine = [
            e
            for e in self.registry(ctx)
            if e[0] == ctx.client_index and id(e) not in seeds
        ]
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
