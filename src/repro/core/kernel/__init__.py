"""Substrate-neutral event kernel shared by both effects substrates.

This package holds the event, process and resource primitives the
protocol layer (``repro.core``, ``repro.client``, ``repro.mds``,
``repro.net``) is written against.  The classes depend on their
environment only through the :class:`~repro.core.effects.Effects`
contract -- ``schedule(event, delay, priority)``, ``now``, the
``_active_process`` slot and the ``_note_cancelled`` bookkeeping hook --
so the *identical* objects run on the virtual-time calendar
(:class:`repro.sim.engine.Environment`) and on real asyncio timers
(:class:`repro.rt.AsyncioEffects`).

This package is their only home: protocol code, the substrates,
workloads and tests all import them from here, so nothing but cluster
assembly depends on the simulator.
"""

from repro.core.kernel.events import (
    PENDING,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Timeout,
)
from repro.core.kernel.process import Interrupt, Process
from repro.core.kernel.resources import (
    Request,
    Resource,
    Store,
    StoreGet,
    StorePut,
)

__all__ = [
    "PENDING",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
]
