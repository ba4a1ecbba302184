"""Determinism pins for the hot-path engine work.

Two guards travel together, both in tier-1 -- determinism is the
contract every optimisation in this repo must clear:

- an **exact event count** on a fixed synthetic workload: the calendar
  size is a pure function of the program, so drift means the engine's
  scheduling behaviour changed (how fast it runs is ``perf/``'s
  business, not a test's);
- **byte-identity goldens** pin the blktrace rows and tracer spans of a
  seeded fig3-style run to hashes captured on pre-optimisation main,
  proving the deque/early-exit restructuring changed *nothing* about
  event ordering.
"""

import hashlib

import pytest

from repro.fs.factory import build_cluster
from repro.obs import Instrumentation
from repro.core.kernel.resources import FilterStore, Store
from repro.sim import Environment
from repro.workloads.xcdn import XcdnWorkload

# -- synthetic engine workload ---------------------------------------------------


def build_synthetic(env, scale=1000):
    """Timeout churn, store ping-pong, fan-in, and filtered gets.

    Mirrors the simulator's hot patterns: RPC inboxes with many waiting
    daemons (fan-in), commit-daemon filtered checkouts, and dense
    timeout scheduling.  Event count is a pure function of ``scale``.
    """
    inbox = Store(env)
    fstore = FilterStore(env)

    def ticker(env, n, dt):
        for _ in range(n):
            yield env.timeout(dt)

    def producer(env, n):
        for i in range(n):
            yield inbox.put(i)
            if i % 8 == 0:
                yield env.timeout(0.0001)

    def daemon(env, n):
        # Fan-in: many daemons block on one inbox.
        for _ in range(n):
            yield inbox.get()

    def fproducer(env, n):
        for i in range(n):
            yield fstore.put(i)

    def fconsumer(env, parity, n):
        for _ in range(n):
            yield fstore.get(lambda x, p=parity: x % 4 == p)

    env.process(ticker(env, scale * 10, 0.001))
    env.process(producer(env, scale * 16))
    for _ in range(32):
        env.process(daemon(env, scale // 2))
    env.process(fproducer(env, scale * 4))
    for parity in range(4):
        env.process(fconsumer(env, parity, scale))


#: Exact calendar size of ``build_synthetic(scale=2000)``; drift here
#: means the engine's scheduling behaviour changed, not just its speed.
SYNTHETIC_EVENTS = 104078


def test_synthetic_event_count_is_exact():
    env = Environment()
    build_synthetic(env, scale=2000)
    env.run()
    assert env.scheduled_events == SYNTHETIC_EVENTS


# -- byte-identity goldens -------------------------------------------------------

#: Captured on main at 846e976 (pre-optimisation) with the recipe in
#: ``_run_seeded_fig3``.  Any ordering change in the engine, stores, or
#: commit queue shows up here as a different hash.
GOLDENS = {
    11: {
        "ops": 4556,
        "events": 66971,
        "blk_rows": 932,
        "blk": "60f86d21449cbf82e0e3ff288117057a54b861d2e1d534173b106ed0da2ee93c",
        "trace": "c93ab87cf102fc8278ab5261871971033490d086adc8b2993da674d82f4e2eea",
    },
    29: {
        "ops": 4258,
        "events": 67333,
        "blk_rows": 930,
        "blk": "81d587ae997bdb6cb26be256a14ce9b972be9c7f798c9eb3df0387196a31a461",
        "trace": "720484a57314331193c449821affe909ae3ff9187d3c6f01bcdfcfe3e3c6ab12",
    },
}


def _run_seeded_fig3(seed):
    obs = Instrumentation()
    cluster = build_cluster(
        "redbud-delayed", num_clients=4, seed=seed, obs=obs
    )
    workload = XcdnWorkload(file_size=32 * 1024, seed_files_per_client=10)
    result = cluster.run_workload(workload, duration=0.6, warmup=0.1)
    return cluster, obs, result


def _span_fingerprint(span):
    end = span.end if span.end is not None else -1.0
    return (
        span.name,
        span.cat,
        round(span.start, 12),
        round(end, 12),
        span.node,
        span.update_ids,
    )


@pytest.mark.parametrize("seed", sorted(GOLDENS))
def test_seeded_fig3_run_is_byte_identical(seed):
    golden = GOLDENS[seed]
    cluster, obs, result = _run_seeded_fig3(seed)

    assert result.ops_completed == golden["ops"]
    assert cluster.env.scheduled_events == golden["events"]

    rows = cluster.blktrace.to_rows()
    assert len(rows) == golden["blk_rows"]
    blk_hash = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert blk_hash == golden["blk"], "blktrace ordering diverged from golden"

    spans = [_span_fingerprint(s) for s in obs.tracer.spans]
    trace_hash = hashlib.sha256(repr(spans).encode()).hexdigest()
    assert trace_hash == golden["trace"], "tracer spans diverged from golden"
