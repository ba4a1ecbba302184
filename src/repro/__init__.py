"""Reproduction of the Delayed Commit Protocol (CLUSTER 2012).

This package reproduces *"Accelerating Distributed Updates with
Asynchronous Ordered Writes in a Parallel File System"* (Lu, Shu, Li, Yi
-- CLUSTER 2012) as a deterministic discrete-event simulation of the
Redbud block-based parallel file system.

Subpackages
-----------
``repro.sim``
    The virtual-time substrate: virtual clock and event calendar (the
    event/process/resource kernel it runs is ``repro.core.kernel``).
``repro.storage``
    Disk-array model, elevator I/O schedulers with request merging, page
    cache, blktrace-style tracing.
``repro.net``
    Network links, RPC layer, compound RPC envelopes.
``repro.mds``
    Metadata server: namespace, allocation groups with B+ tree free-space
    management, daemon-thread service model.
``repro.client``
    Redbud client: layout-get / commit RPC paths, direct data path.
``repro.core``
    The paper's contribution: the Delayed Commit Protocol, the adaptive
    commit-thread pool, adaptive RPC compounding, and space delegation.
``repro.fs``
    Whole-cluster assemblies: Redbud in its three configurations plus the
    NFS3 and PVFS2 behavioural baselines.
``repro.consistency``
    Ordered-writes invariant checking, crash injection and recovery.
``repro.workloads``
    The paper's benchmarks: filebench personalities (fileserver, varmail,
    webproxy), xcdn, and an NPB BT-IO-like parallel workload.
``repro.analysis``
    Metric accumulation, merge-ratio computation, time-series sampling and
    table rendering used by the benchmark harness.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
