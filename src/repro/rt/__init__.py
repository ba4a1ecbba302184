"""The real-time substrate: the protocol stack on asyncio sockets.

``repro.rt`` runs the *same* protocol objects the simulator runs --
:class:`~repro.core.commit_queue.CommitQueue`, the commit daemon pool,
:class:`~repro.net.rpc.RpcClient`, :class:`~repro.mds.server.MetadataServer`
-- against real time and real TCP instead of the virtual calendar:

- :class:`AsyncioEffects` implements the effects boundary
  (:class:`repro.core.effects.Effects`) over an asyncio event loop;
- :mod:`repro.rt.transport` speaks the length-prefixed JSON wire format
  (:mod:`repro.net.wire`) client-side;
- :mod:`repro.rt.server` hosts one metadata shard per process
  (``repro serve``), its state built by the simulator's shard builder
  (:func:`repro.mds.sharding.build_shard_state`);
- :mod:`repro.rt.disk` backs client writes with a real sparse volume
  file so the oracles can verify on-disk bytes;
- :mod:`repro.rt.smoke` drives clients from the simulator's client
  builder (:func:`repro.fs.redbud.build_client`) against a live cluster
  and judges what the shards persisted with the simulator's oracle
  panel (``repro smoke``).

See DESIGN.md §16 for the substrate contract and exactly which
guarantees (ordering, determinism) hold on which substrate.
"""

from repro.rt.effects import AsyncioEffects

__all__ = ["AsyncioEffects"]
