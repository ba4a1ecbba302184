"""Cluster configuration.

One dataclass gathers every knob of the simulated testbed so a benchmark
can describe its setup declaratively.  Defaults approximate the paper's
cluster: 1 MDS + 7 clients, 1 Gbps Ethernet for metadata, a 4 Gb FC disk
array for data, 16 MB delegation chunks, at most 9 commit threads.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from dataclasses import dataclass, field

from repro.core.compound import CompoundPolicy
from repro.core.protocol import COMMIT_MODES
from repro.core.thread_pool import ThreadPoolPolicy
from repro.mds.server import MdsParameters
from repro.net.rpc import RetryPolicy
from repro.storage.disk import DiskParameters


@dataclass(frozen=True)
class LinkParameters:
    """Ethernet parameters (1 Gbps defaults)."""

    bandwidth: float = 125e6
    propagation: float = 60e-6
    per_message_overhead: int = 78


@dataclass
class ClusterConfig:
    """Complete description of one simulated cluster."""

    #: Logical clients -- workload personalities (the paper uses 7
    #: clients + 1 MDS).
    num_clients: int = 7
    #: Simulated client *node processes* to multiplex those personalities
    #: onto, or ``None`` for one node per client (the legacy layout,
    #: byte-identical to builds without the aggregation machinery).
    #: Setting e.g. ``num_clients=10000, client_processes=16`` gives a
    #: 10k-client population served by 16 aggregate nodes: client count
    #: decouples from process count, which is what makes 10k-client runs
    #: tractable (see ``repro.workloads.aggregate``).
    client_processes: _t.Optional[int] = None
    #: ``synchronous`` (original Redbud), ``delayed``, or ``unordered``
    #: (the deliberately broken control mode for consistency tests).
    commit_mode: str = "synchronous"
    #: Enable space delegation (§IV.A).
    space_delegation: bool = False
    #: Delegated chunk size; the paper's experiments use 16 MB.
    delegation_chunk: int = 16 * 1024 * 1024
    #: Fixed compound degree (Fig. 7) or None for adaptive (§IV.B).
    fixed_compound_degree: _t.Optional[int] = None
    #: Client page-cache capacity in bytes (None = unbounded).
    client_cache_capacity: _t.Optional[int] = 2 * 1024 * 1024 * 1024
    #: Commit-queue capacity (backpressure bound).
    commit_queue_capacity: int = 4096
    #: Per-client dirty-pages limit (writeback throttling), bytes.  Like
    #: the cache capacities this is scaled down with the benchmark
    #: namespaces, so buffering cannot swallow a whole (scaled) run.
    dirty_limit: int = 16 * 1024 * 1024

    disk: DiskParameters = field(default_factory=DiskParameters)
    link: LinkParameters = field(default_factory=LinkParameters)
    mds: MdsParameters = field(
        default_factory=lambda: MdsParameters(lease_duration=30.0)
    )
    thread_pool: ThreadPoolPolicy = field(default_factory=ThreadPoolPolicy)
    compound: CompoundPolicy = field(default_factory=CompoundPolicy)

    #: RPC timeout/retry policy (fault tolerance).  ``None`` -- the
    #: fault-free default -- disables timeouts entirely; the RPC path is
    #: then event-for-event identical to a build without the fault
    #: machinery.  Required (non-None) when running under a fault spec
    #: that can lose or stall messages.
    retry: _t.Optional[RetryPolicy] = None
    #: Delayed->synchronous degradation: consecutive RPC timeouts before
    #: a client falls back to synchronous ordered writes.  Only armed
    #: when ``retry`` is set.
    degrade_after_timeouts: int = 3
    #: Commit-queue backlog that also triggers the fallback (None =
    #: derive from ``commit_queue_capacity``).
    degrade_backlog: _t.Optional[int] = None

    #: CURP witness slot budget for unsynced commutative commits.  ``0``
    #: (the default) keeps the ordered commit path only; a positive
    #: budget arms the 1-RTT witness path in delayed and unordered
    #: modes, and a full witness forces the ordered fallback.
    witness_capacity: int = 0

    #: Allocation groups on the volume.
    num_allocation_groups: int = 8
    #: Cross-AG strategy: ``locality``, ``round-robin`` or ``random``.
    #: The paper's MDS rotates AGs by default (§V.A) -- which is exactly
    #: why MDS-side allocation scatters successive I/Os and motivates
    #: space delegation (§IV.A).  ``random`` rotation avoids the
    #: resonance a fixed rotation period has with thread-count-sized
    #: allocation bursts while keeping the same scattering behaviour.
    ag_strategy: str = "random"

    @property
    def client_nodes(self) -> int:
        """Simulated client node processes actually built."""
        return self.client_processes or self.num_clients

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError(f"num_clients must be positive: {self.num_clients}")
        if self.client_processes is not None and not (
            1 <= self.client_processes <= self.num_clients
        ):
            raise ValueError(
                f"client_processes must be in [1, num_clients="
                f"{self.num_clients}], got {self.client_processes}"
            )
        if self.commit_mode not in COMMIT_MODES:
            raise ValueError(f"unknown commit_mode {self.commit_mode!r}")
        if self.space_delegation and self.commit_mode == "synchronous":
            # The paper evaluates delegation only on top of delayed
            # commit; allowing it under sync would be a novel variant, so
            # keep configurations honest.
            raise ValueError(
                "space delegation requires delayed commit (paper §IV.A)"
            )
        if self.mds.shards < 1:
            raise ValueError(
                f"mds.shards must be >= 1, got {self.mds.shards}"
            )
        if self.mds.shards > 1:
            slice_size = self.disk.volume_size // self.mds.shards
            if slice_size < self.num_allocation_groups:
                raise ValueError(
                    f"volume too small for {self.mds.shards} shards x "
                    f"{self.num_allocation_groups} allocation groups"
                )
        if self.witness_capacity < 0:
            raise ValueError(
                f"witness_capacity must be >= 0, got {self.witness_capacity}"
            )
        # Canonical config normalization: the MDS hands out chunks of
        # the size the clients pool, so a delegation_chunk override on
        # the cluster config propagates into the MDS parameters here --
        # every consumer (bench, check, examples) builds from one
        # normalized config instead of patching it up downstream.
        if self.mds.delegation_chunk != self.delegation_chunk:
            self.mds = dataclasses.replace(
                self.mds, delegation_chunk=self.delegation_chunk
            )

    def with_shards(self, shards: int) -> "ClusterConfig":
        """This config with ``shards`` metadata shards (re-validated)."""
        if shards == self.mds.shards:
            return self
        return dataclasses.replace(
            self, mds=dataclasses.replace(self.mds, shards=shards)
        )

    # -- the three Redbud configurations of Fig. 4/5 -------------------------

    @classmethod
    def original_redbud(cls, **kw: _t.Any) -> "ClusterConfig":
        """Original Redbud: synchronous ordered writes."""
        return cls(commit_mode="synchronous", space_delegation=False, **kw)

    @classmethod
    def delayed_commit(cls, **kw: _t.Any) -> "ClusterConfig":
        """Redbud with delayed commit but MDS-side allocation."""
        return cls(commit_mode="delayed", space_delegation=False, **kw)

    @classmethod
    def space_delegation_config(cls, **kw: _t.Any) -> "ClusterConfig":
        """Redbud with delayed commit and space delegation."""
        return cls(commit_mode="delayed", space_delegation=True, **kw)
