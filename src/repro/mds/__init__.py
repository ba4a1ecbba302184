"""Metadata server substrate.

The Redbud MDS "handles the storage and processing of metadata": it owns
the file namespace, maps file ranges to physical extents, and manages the
physical storage resources of the shared array.  Per the paper (§V.A):

- all storage is divided into **allocation groups (AGs)**, each with its
  own **B+ tree** to allocate and deallocate physical space (modelled
  here as a sorted extent list, see :mod:`repro.mds.allocation`);
- AGs are selected by a flexible strategy, round-robin by default;
- clients obtain layouts with ``layout-get`` RPCs and publish updates with
  ``commit`` RPCs;
- under space delegation the MDS hands whole chunks to clients, which
  then allocate small-file space locally.

Modules
-------
- :mod:`repro.mds.extent` -- extent / layout / chunk value types.
- :mod:`repro.mds.allocation` -- AG free-space management + SpaceManager.
- :mod:`repro.mds.namespace` -- files, extent maps, commit application.
- :mod:`repro.mds.server` -- the daemon-thread RPC service model.
"""

from repro.mds.allocation import AllocationGroup, SpaceManager
from repro.mds.extent import EXTENT_COMMITTED, EXTENT_NEW, Chunk, Extent
from repro.mds.namespace import FileMeta, Namespace
from repro.mds.server import MdsParameters, MetadataServer

__all__ = [
    "AllocationGroup",
    "Chunk",
    "EXTENT_COMMITTED",
    "EXTENT_NEW",
    "Extent",
    "FileMeta",
    "MdsParameters",
    "MetadataServer",
    "Namespace",
    "SpaceManager",
]
