"""Shared run harness for every cluster assembly.

All three systems (Redbud, NFS3, PVFS2) expose the same surface to the
benchmark harness: build from a :class:`~repro.fs.config.ClusterConfig`,
then :meth:`BaseCluster.run_workload` a personality for a fixed virtual
duration.  The harness handles the setup phase (excluded from metrics),
the warmup boundary, per-client thread spawning, and result assembly.
:meth:`BaseCluster.start_workload` is its open-ended twin, for the
crash, check and soak harnesses that stop the load at an instant of
their own choosing.  Both drivers loop bare ``op`` calls: a personality
paces itself inside ``op``, and no driver calls ``think``.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.analysis.metrics import LatencyStats, OpMetrics
from repro.client.filesystem import FileSystemAPI
from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.workloads.aggregate import aggregate_thread
from repro.workloads.spec import Workload, WorkloadContext


@dataclass
class RunResult:
    """Everything measured in one workload run."""

    system: str
    workload: str
    duration: float
    metrics: OpMetrics
    #: System-specific extras (merge stats, pool samples, link stats...).
    extras: _t.Dict[str, _t.Any] = field(default_factory=dict)

    @property
    def ops_completed(self) -> int:
        return self.metrics.total_ops

    @property
    def ops_per_second(self) -> float:
        return self.metrics.total_ops / self.duration

    @property
    def bytes_per_second(self) -> float:
        return self.metrics.total_bytes / self.duration

    def latency(self, op: _t.Optional[str] = None) -> LatencyStats:
        return self.metrics.latency(op)

    def speedup_over(self, baseline: "RunResult") -> float:
        """ops/s ratio against another run (Fig. 3's normalisation)."""
        if baseline.ops_per_second == 0:
            raise ZeroDivisionError("baseline completed no operations")
        return self.ops_per_second / baseline.ops_per_second


@dataclass
class WorkloadRun:
    """Handle on an open-ended run from :meth:`BaseCluster.start_workload`."""

    contexts: _t.List[WorkloadContext]
    #: One setup process per context, in client order.
    setups: _t.List[_t.Any]
    stopped: bool = False

    def stop(self) -> None:
        """End every op loop at its next iteration boundary."""
        self.stopped = True


class BaseCluster:
    """Common machinery: thread spawning, measurement windows, results."""

    system_name = "base"

    def __init__(
        self,
        env: Environment,
        seed: int = 0,
        obs: _t.Optional[_t.Any] = None,
    ) -> None:
        self.env = env
        self.root_rng = StreamRNG(seed)
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        #: Attaching binds the tracer clock and engine probe to ``env``
        #: and sets ``env.obs``, where every component built on ``env``
        #: afterwards finds the bundle.
        self.obs = obs
        if obs is not None:
            obs.attach(env)
        #: True once a driver's setup barrier has passed.  Fault
        #: injection reads this to defer client deaths out of the setup
        #: phase (a dead client would park its setup process and hang
        #: the all-of barrier forever).
        self.setup_complete = False
        #: The :class:`~repro.faults.injector.FaultInjector`
        #: ``build_cluster`` attached, or None.
        self.injector: _t.Optional[_t.Any] = None

    # -- subclass surface ------------------------------------------------------

    def client_fs(self, index: int) -> FileSystemAPI:
        """The file-system endpoint workloads drive on client ``index``."""
        raise NotImplementedError

    @property
    def num_clients(self) -> int:
        raise NotImplementedError

    @property
    def num_client_nodes(self) -> int:
        """Simulated client nodes; < ``num_clients`` under aggregation."""
        config = getattr(self, "config", None)
        processes = getattr(config, "client_processes", None)
        return processes or self.num_clients

    def collect_extras(self) -> _t.Dict[str, _t.Any]:
        """System-specific stats folded into the RunResult."""
        return {}

    def apply_cache_recommendation(self, capacity: int) -> None:
        """Scale cache capacities to the workload's namespace size.

        The simulated namespaces are scaled down from the paper's (a few
        hundred files instead of tens of thousands), so cache capacities
        must scale down too or every system becomes an all-RAM file
        system and the disk never matters.  Each personality recommends
        a per-client capacity; subclasses apply it to their caches.
        """

    # -- the run harness ----------------------------------------------------------

    def run_workload(
        self,
        workload: Workload,
        duration: float = 5.0,
        warmup: float = 0.25,
    ) -> RunResult:
        """Set up, warm up, measure for ``duration`` virtual seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if workload.recommended_cache_capacity is not None:
            self.apply_cache_recommendation(
                workload.recommended_cache_capacity
            )
        env = self.env
        nodes = self.num_client_nodes
        aggregated = nodes != self.num_clients
        if aggregated and not workload.aggregatable:
            raise ValueError(
                f"workload {workload.name!r} cannot run on aggregate "
                f"client nodes (client_processes={nodes} < "
                f"num_clients={self.num_clients}): it synchronises "
                "across all clients"
            )
        contexts, setups = self._launch(workload, "workload")
        env.run(until=env.all_of(setups))
        self._leave_setup(contexts)

        measure_start = env.now + warmup
        deadline = measure_start + duration

        def thread_body(ctx: WorkloadContext, tid: int) -> _t.Generator:
            while env.now < deadline:
                yield from workload.op(ctx, tid)

        def start_measuring() -> _t.Generator:
            yield env.timeout(warmup)
            for ctx in contexts:
                ctx.measuring = True

        env.process(start_measuring(), name="measure-gate")
        if not aggregated:
            for ctx in contexts:
                for tid in range(workload.threads_per_client):
                    env.process(
                        thread_body(ctx, tid),
                        name=f"app-c{ctx.client_index}-t{tid}",
                    )
        else:
            for node in range(nodes):
                node_ctxs = contexts[node::nodes]
                for tid in range(workload.threads_per_client):
                    env.process(
                        aggregate_thread(
                            workload,
                            node_ctxs,
                            self.root_rng.stream("aggregate", node, tid),
                            tid,
                            deadline,
                        ),
                        name=f"agg-n{node}-t{tid}",
                    )
        env.run(until=deadline)

        metrics = OpMetrics()
        for ctx in contexts:
            metrics.merge_from(ctx.metrics)
        if self.obs is not None:
            # Publish the per-op end-to-end latency histograms into the
            # registry so ``repro stats`` (and the SLO layer) read tails
            # straight from a snapshot.  Pure bookkeeping: merging
            # bucket counts schedules nothing and consumes no RNG.
            for op in metrics.op_types():
                self.obs.registry.histogram(
                    f"slo.latency.{op}"
                ).merge_from(metrics.histogram(op))
        return RunResult(
            system=self.system_name,
            workload=workload.name,
            duration=duration,
            metrics=metrics,
            extras=self.collect_extras(),
        )

    def start_workload(self, workload: Workload) -> WorkloadRun:
        """Start ``workload`` open-ended and return its handle.

        Builds the contexts (RNG substreams ``("wl", i)``) and spawns
        the setups; a driver process waits for every setup, leaves the
        setup phase, then loops ``workload.op`` on every thread until
        :meth:`WorkloadRun.stop`.  Nothing runs until the caller
        advances ``env``: ``env.run(until=env.all_of(run.setups))``
        runs exactly the setup phase.
        """
        env = self.env
        contexts, setups = self._launch(workload, "wl")
        run = WorkloadRun(contexts, setups)

        def loop(ctx: WorkloadContext, tid: int) -> _t.Generator:
            while not run.stopped:
                yield from workload.op(ctx, tid)

        def driver() -> _t.Generator:
            yield env.all_of(setups)
            self._leave_setup(contexts)
            for ctx in contexts:
                for tid in range(workload.threads_per_client):
                    env.process(
                        loop(ctx, tid),
                        name=f"op-c{ctx.client_index}-t{tid}",
                    )

        env.process(driver(), name="workload-driver")
        return run

    def _launch(
        self, workload: Workload, label: str
    ) -> _t.Tuple[_t.List[WorkloadContext], _t.List[_t.Any]]:
        """One context per personality, RNG substream ``(label, i)``,
        and its spawned setup process.

        Under aggregation the personalities keep their own RNG
        substreams, metrics and private state and only share a node's
        endpoint (personality p lives on node p % nodes -- the identity
        map when not aggregated).  See ``repro.workloads.aggregate``.
        """
        nodes = self.num_client_nodes
        shared: _t.Dict[str, _t.Any] = {}
        contexts = [
            WorkloadContext(
                env=self.env,
                fs=self.client_fs(i % nodes),
                rng=self.root_rng.stream(label, i),
                client_index=i,
                num_clients=self.num_clients,
                metrics=OpMetrics(),
                shared=shared,
            )
            for i in range(self.num_clients)
        ]
        setups = [
            self.env.process(
                workload.setup(ctx), name=f"setup-{ctx.client_index}"
            )
            for ctx in contexts
        ]
        return contexts, setups

    def _leave_setup(self, contexts: _t.List[WorkloadContext]) -> None:
        self.setup_complete = True
        for ctx in contexts:
            ctx.in_setup = False
