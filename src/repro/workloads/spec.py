"""The workload abstraction.

A workload personality defines, per client:

- :meth:`Workload.setup` -- pre-populate the namespace (seed files) before
  measurement starts; setup time is excluded from the metrics;
- :meth:`Workload.op` -- one logical operation iteration (possibly a
  multi-step flowlet like varmail's create-write-fsync); the runner loops
  it on every application thread until the measurement deadline (or,
  open-ended, until stopped).

Cross-client coordination (the shared file registry readers draw from,
NPB's barrier) happens through :attr:`WorkloadContext.shared`, a dict the
cluster runner passes to every client's context.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.analysis.metrics import OpMetrics
from repro.client.filesystem import FileSystemAPI
from repro.util.rng import StreamRNG

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


@dataclass
class WorkloadContext:
    """Everything a workload needs on one client node."""

    env: "Environment"
    fs: FileSystemAPI
    rng: StreamRNG
    client_index: int
    num_clients: int
    metrics: OpMetrics
    #: Cross-client shared state (one dict per run, same object for all).
    shared: _t.Dict[str, _t.Any]
    #: Per-client private state, populated by setup().
    state: _t.Dict[str, _t.Any] = field(default_factory=dict)
    #: True while inside the measured window (setup leaves this False).
    measuring: bool = False
    #: True during the setup phase only; distinguishes seed files from
    #: warmup-time runtime files (which must not join the seed corpus).
    in_setup: bool = True

    _name_counter: int = 0

    def unique_name(self, prefix: str) -> str:
        """A cluster-unique file name."""
        self._name_counter += 1
        return f"{prefix}/c{self.client_index}/{self._name_counter}"


def timed(
    ctx: WorkloadContext,
    op_name: str,
    gen: _t.Generator,
    nbytes: int = 0,
) -> _t.Generator:
    """Run ``gen`` and record its latency under ``op_name``.

    Outside the measured window the operation still runs but is not
    recorded, so setup traffic never pollutes the results.
    """
    start = ctx.env.now
    result = yield from gen
    if ctx.measuring:
        ctx.metrics.record(
            op_name, ctx.env.now - start, nbytes, now=ctx.env.now
        )
    return result


class Workload:
    """Base class for benchmark personalities."""

    #: Display name used in reports.
    name = "base"
    #: Application threads spawned per client node.
    threads_per_client = 4
    #: Whether personalities of this workload may be statistically
    #: multiplexed onto shared aggregate nodes (see
    #: :mod:`repro.workloads.aggregate`).  Personalities that block on
    #: cross-client collectives (NPB's barrier) must opt out: parking
    #: one rank while a co-resident rank waits on the collective would
    #: deadlock it.
    aggregatable = True
    #: Mean think time between op iterations (seconds; exponential).
    think_time = 0.0005
    #: Client page-cache capacity this personality recommends (bytes);
    #: ``None`` keeps the cluster default.
    recommended_cache_capacity: _t.Optional[int] = None

    def setup(self, ctx: WorkloadContext) -> _t.Generator:
        """Pre-measurement population; default: nothing."""
        return
        yield  # pragma: no cover - makes this a generator

    def op(self, ctx: WorkloadContext, thread_id: int) -> _t.Generator:
        """One operation iteration on one application thread."""
        raise NotImplementedError

    def think(self, ctx: WorkloadContext) -> _t.Generator:
        """Inter-op computation time (the app's own work).

        A personality paces itself inside ``op`` (xcdn, filebench and
        the check mix end ``op`` with ``yield from self.think(ctx)``):
        no driver calls ``think``.
        """
        if self.think_time > 0:
            yield ctx.env.timeout(ctx.rng.exponential(self.think_time))

    # -- shared-registry helpers ------------------------------------------------

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
