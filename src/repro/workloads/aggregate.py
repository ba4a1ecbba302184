"""Aggregate client processes: many personalities, few nodes.

The legacy runner builds one simulated client node (NIC pair, RPC
client, page cache, commit queue, application threads) per workload
client.  That couples the client *population* to the process count, and
the process count to the event rate -- 10 000 clients means 40 000
application threads and a calendar that never drains.

This module decouples them.  A run with ``client_processes = P`` and
``num_clients = N`` (P < N) still creates **N workload personalities**
-- each with its own RNG substream, metrics, private state and share of
the namespace, exactly as before -- but maps them onto only **P
simulated nodes** (personality ``p`` lives on node ``p % P``).  Each
node runs the workload's usual ``threads_per_client`` application
threads, and every thread *statistically multiplexes* the node's
personalities: each op iteration first draws which resident personality
issues it, then runs the personality's own ``op`` with the personality's
own RNG.  One node thus presents the interleaved request stream of
``N / P`` clients while costing one client's worth of processes.

Determinism contract
--------------------
- Personality substreams are unchanged: personality ``p`` draws from
  ``root_rng.stream("workload", p)`` whether aggregated or not.
- The multiplexer draws from dedicated ``("aggregate", node, tid)``
  streams that exist only in aggregated runs -- legacy runs consume no
  extra randomness, which is why ``client_processes=None`` (and the
  degenerate ``client_processes == num_clients``) stays byte-identical
  to pre-aggregation builds.
- Same seed, same (N, P): identical trace, ops and blktrace digest.

Not every personality can be multiplexed: NPB BT-IO's ranks block on an
``num_clients``-party barrier, so parking one rank while another waits
would deadlock the collective.  Such workloads declare
``aggregatable = False`` and the runner rejects aggregation up front.
"""

from __future__ import annotations

import typing as _t

from repro.util.rng import StreamRNG
from repro.workloads.spec import Workload, WorkloadContext


def assign_personalities(
    num_clients: int, nodes: int
) -> _t.List[_t.List[int]]:
    """Round-robin personality -> node map: personality p on node p % nodes.

    Round-robin (rather than contiguous blocks) keeps every node's
    resident set statistically alike even when ``nodes`` does not divide
    ``num_clients``.
    """
    if not 1 <= nodes <= num_clients:
        raise ValueError(
            f"nodes must be in [1, num_clients={num_clients}], got {nodes}"
        )
    return [
        list(range(node, num_clients, nodes)) for node in range(nodes)
    ]


def aggregate_thread(
    workload: Workload,
    contexts: _t.List[WorkloadContext],
    mux_rng: StreamRNG,
    thread_id: int,
    deadline: float,
) -> _t.Generator:
    """One aggregate application thread multiplexing ``contexts``.

    Every iteration draws the issuing personality from ``mux_rng`` (a
    per-(node, thread) stream), then runs one op of the workload under
    that personality's context -- its RNG, metrics and file handles --
    so the op stream is an unbiased interleaving of the resident
    personalities.
    """
    env = contexts[0].env
    n = len(contexts)
    if n == 1:
        ctx = contexts[0]
        while env.now < deadline:
            yield from workload.op(ctx, thread_id)
        return
    while env.now < deadline:
        ctx = contexts[int(mux_rng.integers(0, n))]
        yield from workload.op(ctx, thread_id)
