"""``rt-commit``: the delayed-commit stack on real TCP and a real file.

One shard process (``perf.shard`` around ``serve_shard``, 4 daemons, no
drops) and this driver process, which holds one connection and 32
``RedbudClient`` stacks assembled exactly as ``repro smoke`` assembles
them.  A repetition boots a fresh shard, connects, creates the files,
then times a fixed closed loop per client of 16 KiB writes with an
``fsync`` of the written file after every 4th write.  Afterwards the
shard is shut down through ctl and the smoke oracles audit its dump and
the volume file.

Driver and shard are pinned to one CPU for the repetition.  Left alone on
two CPUs, the scheduler's wake-affine placement flips the ping-ponging
pair between sharing a core (1 090 ops/s) and separate cores (2 050 ops/s)
for minutes at a time on identical code; sharing one by construction
repeats within 2 %.  32 closed loops keep the 4 server daemons saturated,
so throughput is the pair's capacity and latency follows it.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import select
import subprocess
import sys
import time
import typing as _t
from dataclasses import dataclass, field

from perf import host
from perf.shard import VOLUME_SIZE
from perf.stats import Rep, counters, percentile, ratio

WRITE_SIZE = 16 * 1024
CLIENTS = 32
COMPOUND_DEGREE = 4
FSYNC_EVERY = 4
BOOT_TIMEOUT_S = 60.0
PHASE_TIMEOUT_S = 150.0


@dataclass
class _Tally:
    """What the timed loops of all clients add up to."""

    done: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: _t.List[float] = field(default_factory=list)
    problems: _t.List[str] = field(default_factory=list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{what}: {exc!r}")


def _populate(
    client: _t.Any, count: int, files: _t.List[int], expect: _t.Dict[int, int]
) -> _t.Generator:
    for index in range(count):
        file_id = yield from client.create(f"c{client.client_id}-f{index}")
        files.append(file_id)
        expect[file_id] = 0


def _timed_loop(
    client: _t.Any,
    files: _t.List[int],
    order: _t.List[int],
    writes: int,
    expect: _t.Dict[int, int],
    tally: _Tally,
) -> _t.Generator:
    """Closed loop: the next write starts when the previous returned."""
    for index in range(writes):
        file_id = files[order[index % len(order)]]
        tally.attempted += 1
        start = time.perf_counter()
        try:
            yield from client.write(file_id, 0, WRITE_SIZE)
            expect[file_id] = WRITE_SIZE
            if index % FSYNC_EVERY == FSYNC_EVERY - 1:
                yield from client.fsync(file_id)
                tally.latencies.append(time.perf_counter() - start)
        except Exception as exc:  # failure accounting boundary
            tally.fail(f"write {index} of client {client.client_id}", exc)
        else:
            tally.done += 1
    for file_id in files:
        try:
            yield from client.fsync(file_id)
        except Exception as exc:  # failure accounting boundary
            tally.fail(f"final fsync of file {file_id}", exc)


class RtCommit:
    """The real-socket workload."""

    name = "rt-commit"
    reps = 3
    #: Two processes on real timers never do the same thing twice, and a
    #: repetition can come out faster as well as slower: the median.
    statistic = "median"
    latency_clock = (
        "host wall seconds from a write call to the return of the "
        "fsync that follows it"
    )

    def __init__(self, quick: bool) -> None:
        self.files_per_client = 16 if quick else 32
        self.writes_per_client = 64 if quick else 224
        self.warm_files = 4
        self.warm_writes = 16

    def warm(self, seed: int) -> None:
        self._run(seed, self.warm_files, self.warm_writes, None)

    def rep(self, seed: int, trace: _t.Any = None) -> Rep:
        return self._run(
            seed, self.files_per_client, self.writes_per_client, trace
        )

    def _run(self, seed: int, files: int, writes: int, trace: _t.Any) -> Rep:
        with host.scratch_dir("rt-") as data_dir:
            return self._run_in(data_dir, seed, files, writes, trace)

    def _run_in(
        self, data_dir: str, seed: int, files: int, writes: int, trace: _t.Any
    ) -> Rep:
        shard_profile = os.path.join(data_dir, "shard.prof")
        command = [
            sys.executable,
            "-m",
            "perf.shard",
            "--data-dir",
            data_dir,
        ]
        if trace is not None:
            command += ["--profile", shard_profile]
        gc.collect()
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})  # the shard inherits it
        wall0 = time.perf_counter()
        shard = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            cwd=host.ROOT,
            env=host.child_env(),
        )
        try:
            port = _await_ready(shard)
            with trace or contextlib.nullcontext():
                outcome = asyncio.run(
                    _drive(seed, port, shard.pid, data_dir, files, writes)
                )
            shard.wait(timeout=20)
            if trace is not None:
                trace.add_dump(shard_profile)
            return _judge(outcome, data_dir, seed, files, wall0)
        finally:
            # Always reaped: killed if it outlived its ctl shutdown.
            if shard.poll() is None:
                shard.kill()
            shard.wait()
            if shard.stdout is not None:
                shard.stdout.close()
            os.sched_setaffinity(0, cpus)


def _await_ready(shard: "subprocess.Popen[str]") -> int:
    """The port from the shard's ``READY port=<n>`` line."""
    assert shard.stdout is not None
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([shard.stdout], [], [], max(0, remaining))
        if not ready:
            raise RuntimeError("shard did not report READY in time")
        line = shard.stdout.readline()
        if not line:
            raise RuntimeError(
                f"shard exited before READY (rc={shard.poll()})"
            )
        if line.startswith("READY port="):
            return int(line.strip().split("=", 1)[1])


async def _drive(
    seed: int,
    port: int,
    shard_pid: int,
    data_dir: str,
    files_per_client: int,
    writes_per_client: int,
) -> _t.Dict[str, _t.Any]:
    """Set up, run the timed loops, shut the shard down; raw numbers."""
    from repro.client.client import RedbudClient
    from repro.mds.sharding import ShardRouter
    from repro.net.rpc import RetryPolicy, RpcClient
    from repro.rt.disk import RtBlockDevice
    from repro.rt.effects import AsyncioEffects
    from repro.rt.transport import RtClusterTransport, ctl_request
    from repro.util.rng import StreamRNG

    env = AsyncioEffects(asyncio.get_running_loop())
    router = ShardRouter(num_shards=1)
    address = ("127.0.0.1", port)
    blockdev = RtBlockDevice(
        env, os.path.join(data_dir, "volume.img"), VOLUME_SIZE
    )
    transport = await RtClusterTransport.connect(env, [address], router)
    rng = StreamRNG(seed)
    tally = _Tally()
    expect: _t.Dict[int, int] = {}
    try:
        clients = []
        for client_id in range(1, CLIENTS + 1):
            rpc = RpcClient(
                env,
                client_id,
                transport,
                # The `repro smoke` retry policy.
                retry=RetryPolicy(
                    base_timeout=0.5, max_timeout=2.0, max_attempts=30
                ),
                retry_rng=rng.stream("retry", client_id),
            )
            clients.append(
                RedbudClient(
                    env,
                    client_id,
                    rpc,
                    blockdev,
                    commit_mode="delayed",
                    fixed_compound_degree=COMPOUND_DEGREE,
                    shard_of_file=router.shard_of_file,
                    num_shards=1,
                )
            )

        async def run_all(procs: _t.List[_t.Any]) -> None:
            await asyncio.wait_for(
                env.wait(env.all_of(procs)), PHASE_TIMEOUT_S
            )
            env.check_failures()

        files: _t.List[_t.List[int]] = [[] for _ in clients]
        await run_all(
            [
                env.process(_populate(c, files_per_client, f, expect))
                for c, f in zip(clients, files)
            ]
        )
        # The seed decides the order each client visits its files in.
        orders = []
        for client in clients:
            order = list(range(files_per_client))
            rng.stream("order", client.client_id).shuffle(order)
            orders.append(order)

        lo0 = host.loopback_rx_bytes()
        shard_cpu0 = host.process_cpu_s(shard_pid)
        cpu0 = time.process_time()
        first = time.perf_counter()
        await run_all(
            [
                env.process(
                    _timed_loop(c, f, o, writes_per_client, expect, tally)
                )
                for c, f, o in zip(clients, files, orders)
            ]
        )
        end = time.perf_counter()
        client_cpu = time.process_time() - cpu0
        shard_cpu = host.process_cpu_s(shard_pid) - shard_cpu0
        wire_bytes = host.loopback_rx_bytes() - lo0

        await run_all([env.process(c.shutdown()) for c in clients])
        stats = await ctl_request(*address, {"op": "stats"})
        reply = await ctl_request(*address, {"op": "shutdown"})
        if not reply.get("ok"):
            raise RuntimeError(f"shard shutdown failed: {reply!r}")
    finally:
        await transport.aclose()
        blockdev.close()

    daemon_stats = [c.daemon_ctx.stats for c in clients]
    commit_rpcs = sum(s.rpcs_sent for s in daemon_stats)
    ops_committed = sum(s.ops_committed for s in daemon_stats)
    local = sum(c.space_local_allocs for c in clients)
    remote = sum(c.space_rpc_allocs for c in clients)
    hits = sum(c.cache.hits for c in clients)
    misses = sum(c.cache.misses for c in clients)
    mds = stats["stats"]
    tallies = {
        "core.commit_rpcs": commit_rpcs,
        "core.ops_committed": ops_committed,
        "core.mean_compound_degree": ratio(ops_committed, commit_rpcs),
        "core.delegation_local_share": ratio(local, local + remote),
        "core.pool_peak_threads": max(
            (s[1] for c in clients for s in c.thread_pool.samples), default=0
        ),
        "storage.cache_hit_ratio": ratio(hits, hits + misses),
        "mds.requests": mds["requests_processed"],
        "mds.ops_per_request": ratio(
            mds["ops_processed"], mds["requests_processed"]
        ),
        "net.rpc_messages": sum(c.rpc.calls_sent for c in clients),
        "net.rpc_retries": sum(c.rpc.retries for c in clients),
        "net.wire.frames": transport.requests_sent
        + transport.replies_received
        + transport.unmatched_replies,
        "net.wire.bytes": wire_bytes,
        "rt.requests_sent": transport.requests_sent,
        "rt.replies_unmatched": transport.unmatched_replies,
        "rt.client_cpu_s": client_cpu,
        "rt.shard_cpu_s": shard_cpu,
        "client.dirty_throttle_events": sum(
            c.dirty_throttle_events for c in clients
        ),
        "client.degraded_writes": sum(c.degraded_writes for c in clients),
    }
    return {
        "first": first,
        "end": end,
        "cpu": client_cpu + shard_cpu,
        "tally": tally,
        "expect": expect,
        "counters": counters(tallies),
    }


def _judge(
    outcome: _t.Dict[str, _t.Any],
    data_dir: str,
    seed: int,
    files_per_client: int,
    wall0: float,
) -> Rep:
    """Run the smoke oracles on what hit disk; fold violations in."""
    from repro.rt.smoke import SmokeConfig, run_oracles

    tally: _Tally = outcome["tally"]
    with open(os.path.join(data_dir, "shard-0.json")) as handle:
        dump = json.load(handle)
    config = SmokeConfig(
        addresses=[],
        data_dir=data_dir,
        shards=1,
        volume_size=VOLUME_SIZE,
        clients=CLIENTS,
        files_per_client=files_per_client,
        file_size=WRITE_SIZE,
        seed=seed,
    )
    report = run_oracles(
        [dump], config.volume_path, outcome["expect"], config
    )
    problems = list(tally.problems)
    for name, messages in report["oracles"].items():
        problems.extend(f"{name}: {m}" for m in messages[:3])
    latencies = sorted(tally.latencies)
    return Rep(
        setup_s=outcome["first"] - wall0,
        timed_wall_s=outcome["end"] - outcome["first"],
        timed_cpu_s=outcome["cpu"],
        ops=tally.done,
        attempted=tally.attempted,
        failed=tally.failed + report["violations"],
        latency_p50_ms=1e3 * percentile(latencies, 0.50),
        latency_p99_ms=1e3 * percentile(latencies, 0.99),
        latency_samples=len(latencies),
        identity=None,
        counters=outcome["counters"],
        problems=problems,
    )
