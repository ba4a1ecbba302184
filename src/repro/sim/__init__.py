"""The virtual-time substrate: a deterministic event calendar.

Every node, daemon thread, disk head and network link in the simulated
cluster is a generator process running against the virtual clock
provided here.  :class:`Environment` implements the
:class:`repro.core.effects.Effects` contract over one binary heap of
``(time, priority, sequence, event)`` entries; ``SimEffects`` is the
same class under its effects name, next to
:class:`repro.rt.AsyncioEffects`.

This package holds the substrate only.  The event, process and resource
classes protocol code yields and waits on (``Event``, ``Timeout``,
``Process``, ``Store``, ...) live in :mod:`repro.core.kernel` and are
shared by both substrates; ``StreamRNG`` lives in :mod:`repro.util.rng`.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(1.5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.5]
"""

from repro.sim.engine import Environment, SimulationError

#: The engine under its effects name: protocol assembly code that wants
#: to say "the virtual-time substrate" rather than "the simulator".
SimEffects = Environment

__all__ = ["Environment", "SimEffects", "SimulationError"]
