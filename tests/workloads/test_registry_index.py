"""The indexed file registry.

Two properties:

- :class:`repro.workloads.spec.FileRegistry` answers every registry
  operation exactly as the scanning lists kept in
  ``tests/workloads/reference_registry.py``: the same entry picked (the
  same registration, an object live in that side's registry), the same
  files deleted by each personality's own-file choice, and the same RNG
  state after every step;
- a remote pick reads no entry but the one it returns: on a 20 000-seed
  namespace over 10 000 clients the scanning pick reads all 20 000.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import OpMetrics
from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.workloads.filebench import (
    FileserverWorkload,
    VarmailWorkload,
    WebproxyWorkload,
)
from repro.workloads.spec import Workload, WorkloadContext
from tests.workloads.reference_registry import (
    ScanningFileserver,
    ScanningVarmail,
    ScanningWebproxy,
    ScanningWorkload,
)

CLIENTS = 3
SEEDS_PER_CLIENT = 2  # small, so varmail's and webproxy's deletes fire


class StubFS:
    """The file-system calls the personalities make, answered at once;
    file ids count up from 1."""

    def __init__(self):
        self.last_id = 0
        self.unlinked = []

    def create(self, name):
        self.last_id += 1
        return self.last_id
        yield  # pragma: no cover - makes this a generator

    def unlink(self, file_id):
        self.unlinked.append(file_id)
        return
        yield  # pragma: no cover

    def write(self, file_id, offset, length, scattered=False):
        return
        yield  # pragma: no cover

    def read(self, file_id, offset, length):
        return
        yield  # pragma: no cover

    def close(self, file_id):
        return
        yield  # pragma: no cover

    fsync = close


class Side:
    """One implementation: contexts sharing one registry, and the three
    personalities whose op paths choose among a client's own files."""

    def __init__(self, scanning):
        env = Environment()
        self.fs = StubFS()
        shared = {}
        self.ctxs = [
            WorkloadContext(
                env=env,
                fs=self.fs,
                rng=StreamRNG(3).stream("registry", c),
                client_index=c,
                num_clients=CLIENTS,
                metrics=OpMetrics(),
                shared=shared,
            )
            for c in range(CLIENTS)
        ]
        self.workload = ScanningWorkload if scanning else Workload
        kinds = (
            (ScanningFileserver, ScanningVarmail, ScanningWebproxy)
            if scanning
            else (FileserverWorkload, VarmailWorkload, WebproxyWorkload)
        )
        fileserver, varmail, webproxy = (
            kind(seed_files_per_client=SEEDS_PER_CLIENT) for kind in kinds
        )
        self.own_choices = {
            "fileserver": fileserver._delete,
            "varmail": varmail._delete_one,
            "webproxy": lambda ctx: webproxy.op(ctx, 0),
        }

    def registry(self):
        return self.workload.registry(self.ctxs[0])

    def seeds(self):
        return self.workload.seed_registry(self.ctxs[0])

    def step(self, op):
        """Apply one operation; return what it picked, if anything."""
        kind, client = op[0], op[1]
        ctx = self.ctxs[client]
        if kind == "register":
            ctx.in_setup = op[2]
            self.fs.last_id += 1
            self.workload.register_file(ctx, self.fs.last_id, op[3])
            return None
        if kind == "unregister":
            registry = self.registry()
            if not registry:
                return None
            victim = registry[op[2] % len(registry)]
            # An equal tuple, not the registered object: unregistration
            # goes by value.  Repeating it must be a no-op.
            twin = (victim[0], victim[1], victim[2])
            self.workload.unregister_file(ctx, twin)
            self.workload.unregister_file(ctx, twin)
            return victim
        if kind == "pick":
            return self.workload.pick_file(
                ctx, prefer_remote=op[2], seeds_only=op[3]
            )
        ctx.in_setup = False
        for _ in self.own_choices[kind](ctx):
            pass  # the stub answers at once; think timeouts are ignored
        return None


ops = st.one_of(
    st.tuples(
        st.just("register"),
        st.integers(0, CLIENTS - 1),
        st.booleans(),
        st.integers(1, 4096),
    ),
    st.tuples(
        st.just("unregister"), st.integers(0, CLIENTS - 1), st.integers(0, 99)
    ),
    st.tuples(
        st.just("pick"),
        st.integers(0, CLIENTS - 1),
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(
        st.sampled_from(["fileserver", "varmail", "webproxy"]),
        st.integers(0, CLIENTS - 1),
    ),
)


def rng_state(ctx):
    return ctx.rng._gen.bit_generator.state


def own_files(side, client, runtime_only):
    seeds = set(id(e) for e in side.seeds())
    return [
        e
        for e in side.registry()
        if e[0] == client and not (runtime_only and id(e) in seeds)
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, max_size=80))
# A removed runtime file must leave the runtime index too.
@example([
    ("register", 0, False, 1),
    ("register", 1, True, 1),
    ("register", 2, True, 1),
    ("unregister", 0, 0),
    ("pick", 1, True, True),
])
def test_indexed_registry_answers_like_the_scanning_lists(steps):
    indexed, scanning = Side(scanning=False), Side(scanning=True)
    for op in steps:
        got = indexed.step(op)
        expected = scanning.step(op)
        assert got == expected  # file ids are unique: one registration
        if op[0] == "pick" and got is not None:
            assert any(e is got for e in indexed.registry())
            assert any(e is expected for e in scanning.registry())
        assert list(indexed.registry()) == scanning.registry()
        assert list(indexed.seeds()) == scanning.seeds()
        assert indexed.fs.unlinked == scanning.fs.unlinked
        for ctx, ref in zip(indexed.ctxs, scanning.ctxs):
            assert rng_state(ctx) == rng_state(ref)
            for runtime_only in (False, True):
                mine = indexed.registry().own(ctx.client_index, runtime_only)
                assert list(mine) == own_files(
                    scanning, ctx.client_index, runtime_only
                )


# -- a remote pick reads only the entry it returns ---------------------------


class CountingEntry(tuple):
    """A registry entry that counts the reads of its fields."""

    reads = 0

    def __getitem__(self, index):
        CountingEntry.reads += 1
        return tuple.__getitem__(self, index)


def seeded(workload, clients=10_000, per_client=2):
    """``clients`` contexts sharing a registry of ``per_client`` seeds each."""
    shared = {}
    ctxs = [
        WorkloadContext(
            env=None,
            fs=None,
            rng=StreamRNG(7).stream("reads", c),
            client_index=c,
            num_clients=clients,
            metrics=OpMetrics(),
            shared=shared,
        )
        for c in range(clients)
    ]
    file_id = 0
    for _ in range(per_client):
        for ctx in ctxs:
            file_id += 1
            entry = CountingEntry((ctx.client_index, file_id, 32 * 1024))
            if workload is Workload:
                Workload.registry(ctx).add(entry, seed=True)
            else:
                ScanningWorkload.registry(ctx).append(entry)
                ScanningWorkload.seed_registry(ctx).append(entry)
    return ctxs


def test_remote_pick_reads_only_what_it_returns():
    ctxs = seeded(Workload)
    assert len(Workload.seed_registry(ctxs[0])) == 20_000
    worst = 0
    for i in range(1_000):
        ctx = ctxs[(37 * i) % len(ctxs)]
        CountingEntry.reads = 0
        entry = Workload.pick_file(ctx, prefer_remote=True, seeds_only=True)
        worst = max(worst, CountingEntry.reads)
        assert entry[0] != ctx.client_index
    assert worst <= 64
    # The scanning pick reads every seed to build its remote list.
    ctxs = seeded(ScanningWorkload)
    CountingEntry.reads = 0
    ScanningWorkload.pick_file(ctxs[0], prefer_remote=True, seeds_only=True)
    assert CountingEntry.reads == 20_000
