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
from bisect import bisect_left, bisect_right, insort
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
    def registry(ctx: WorkloadContext) -> "FileRegistry":
        """The shared registry of readable files, in registration order."""
        registry = ctx.shared.get("registry")
        if registry is None:
            registry = ctx.shared["registry"] = FileRegistry()
        return registry

    @classmethod
    def seed_registry(
        cls, ctx: WorkloadContext
    ) -> _t.List[_t.Tuple[int, int, int]]:
        """Files seeded during setup -- the cold long-tail namespace."""
        return cls.registry(ctx).seeds

    @classmethod
    def register_file(
        cls, ctx: WorkloadContext, file_id: int, size: int
    ) -> None:
        cls.registry(ctx).add(
            (ctx.client_index, file_id, size), seed=ctx.in_setup
        )

    @classmethod
    def unregister_file(
        cls, ctx: WorkloadContext, entry: _t.Tuple[int, int, int]
    ) -> None:
        """Remove a deleted file from every registry view."""
        cls.registry(ctx).discard(entry)

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
        registry = cls.registry(ctx)
        view = registry.seeds if seeds_only else registry.files
        if not view:
            return None
        if prefer_remote:
            remote = registry.remote(ctx.client_index, seeds_only)
            if remote:
                return ctx.rng.choice(remote)
        return ctx.rng.choice(view)


class FileRegistry:
    """The shared namespace readers draw from: every live registered
    file, in registration order, each flagged seed (registered during
    set-up) or runtime.

    An entry is ``(client_index, file_id, size)``; file ids are unique,
    so an entry names one registration.  :attr:`files` and :attr:`seeds`
    are the live entries and the live seeds, as lists.  Beside them every
    registration keeps the *slot* it was appended at, and an
    unregistered one leaves a tombstone, so a slot never moves; ascending
    slot indexes -- the tombstones, the live runtime slots, and each
    client's own and own runtime slots -- answer :meth:`remote` and
    :meth:`own`, the sequences a remote pick and an own-file delete draw
    over, by bisect counts instead of a walk of the namespace.
    """

    def __init__(self) -> None:
        #: The live entries / the live seeds, in registration order.
        self.files: _t.List[_t.Tuple[int, int, int]] = []
        self.seeds: _t.List[_t.Tuple[int, int, int]] = []
        self._slot_of: _t.Dict[_t.Tuple[int, int, int], int] = {}
        #: Slot -> 1 if its entry is a seed.
        self._seed = bytearray()
        #: Tombstoned slots, ascending (and so for every slot list).
        self._dead: _t.List[int] = []
        #: Live runtime slots.
        self._runtime: _t.List[int] = []
        #: Client -> its live slots / its live runtime slots.
        self._own: _t.Dict[int, _t.List[int]] = {}
        self._own_runtime: _t.Dict[int, _t.List[int]] = {}

    def __len__(self) -> int:
        return len(self.files)

    def __getitem__(self, k: int) -> _t.Tuple[int, int, int]:
        return self.files[k]

    def add(self, entry: _t.Tuple[int, int, int], seed: bool) -> None:
        if entry in self._slot_of:
            raise ValueError(f"file {entry} is already registered")
        slot = len(self._seed)
        self._slot_of[entry] = slot
        self._seed.append(seed)
        self.files.append(entry)
        _slots(self._own, entry[0]).append(slot)
        if seed:
            self.seeds.append(entry)
        else:
            self._runtime.append(slot)
            _slots(self._own_runtime, entry[0]).append(slot)

    def discard(self, entry: _t.Tuple[int, int, int]) -> None:
        """Unregister ``entry``; a no-op if it is not registered."""
        slot = self._slot_of.pop(entry, None)
        if slot is None:
            return
        position = slot - bisect_left(self._dead, slot)
        del self.files[position]
        if self._seed[slot]:
            del self.seeds[position - bisect_left(self._runtime, slot)]
        else:
            _drop(self._runtime, slot)
            _drop(self._own_runtime[entry[0]], slot)
        _drop(self._own[entry[0]], slot)
        insort(self._dead, slot)

    def remote(self, client: int, seeds_only: bool) -> "_Remote":
        """The live entries (seeds only, if ``seeds_only``) registered
        by clients other than ``client``."""
        own = self._own.get(client, [])
        if not seeds_only:
            return _Remote(self, (self._dead, own))
        # The client's runtime slots sit in both ``_runtime`` and ``own``.
        return _Remote(
            self,
            (self._dead, self._runtime, own),
            (self._own_runtime.get(client, []),),
        )

    def own(self, client: int, runtime_only: bool = False) -> "_Own":
        """``client``'s own live entries (only its runtime files, if
        ``runtime_only``), in registration order."""
        slots = self._own_runtime if runtime_only else self._own
        return _Own(self, slots.get(client, ()))

    def _entry(self, slot: int) -> _t.Tuple[int, int, int]:
        """The live entry registered at ``slot``."""
        return self.files[slot - bisect_left(self._dead, slot)]


class _Remote:
    """The live entries left once the slots in ``minus`` are taken out
    and those in ``plus`` put back: ``len`` and ``[k]`` in registration
    order, so ``rng.choice`` draws over it exactly as over the list it
    stands for."""

    __slots__ = ("_registry", "_minus", "_plus")

    def __init__(
        self,
        registry: FileRegistry,
        minus: _t.Tuple[_t.List[int], ...],
        plus: _t.Tuple[_t.List[int], ...] = (),
    ) -> None:
        self._registry = registry
        self._minus = minus
        self._plus = plus

    def __len__(self) -> int:
        return (
            len(self._registry._seed)  # one flag per slot ever handed out
            - sum(map(len, self._minus))
            + sum(map(len, self._plus))
        )

    def __getitem__(self, k: int) -> _t.Tuple[int, int, int]:
        if not 0 <= k < len(self):
            raise IndexError(k)
        minus, plus = self._minus, self._plus
        # The k-th kept slot is the first whose prefix keeps k + 1; it
        # lies at most one slot per taken-out slot past k.
        lo, hi = k, k + sum(map(len, minus))
        while lo < hi:
            mid = (lo + hi) // 2
            kept = mid + 1
            for slots in minus:
                kept -= bisect_right(slots, mid)
            for slots in plus:
                kept += bisect_right(slots, mid)
            if kept > k:
                hi = mid
            else:
                lo = mid + 1
        return self._registry._entry(lo)


class _Own:
    """The entries at ``slots``, ascending: one client's own files."""

    __slots__ = ("_registry", "_slots")

    def __init__(
        self, registry: FileRegistry, slots: _t.Sequence[int]
    ) -> None:
        self._registry = registry
        self._slots = slots

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, k: int) -> _t.Tuple[int, int, int]:
        return self._registry._entry(self._slots[k])


def _slots(by_client: _t.Dict[int, _t.List[int]], client: int) -> _t.List[int]:
    slots = by_client.get(client)
    if slots is None:
        slots = by_client[client] = []
    return slots


def _drop(slots: _t.List[int], slot: int) -> None:
    del slots[bisect_left(slots, slot)]
