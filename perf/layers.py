"""Module -> layer map and profile attribution: the one place that knows.

Layers are this repo's packages.  The traced pass profiles one
repetition with ``cProfile`` (enabled from ``perf/`` only) and this module
turns the statistics into two numbers per layer:

``<layer>.self_s``
    sum of ``tottime`` over the layer's functions -- the layer's time
    minus what its callees in other layers cover;
``<layer>.calls_in``
    calls whose caller sits in a different layer (boundary crossings).

C built-ins are split by name: socket/select/asyncio accelerators count as
``asyncio``, the json accelerator as ``json``, ``posix.*`` as ``os``.  Any
other built-in (``heappush``, ``list.append``, numpy draws) has no module
of its own, so its time goes to the layer of whoever called it.  The one
exception is ``epoll.poll``: the profiler's clock is wall time, so its
``tottime`` is the time the event loops sat waiting, reported on its own as
``rt.poll_wait_s`` and kept out of ``asyncio.self_s``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import typing as _t

LAYERS: _t.Tuple[str, ...] = (
    "sim",
    "core.kernel",
    "core",
    "client",
    "storage",
    "net",
    "net.wire",
    "mds",
    "rt",
    "workloads",
    "analysis",
    "obs",
    "util",
    "fs",
    "asyncio",
    "json",
    "os",
    "other",
)

#: Dotted module prefix below ``repro`` -> layer; longest prefix wins.
#: ``core.effects`` is the capability the kernel primitives are written
#: against, so it is kernel, not protocol.  ``repro`` packages not named
#: here (cli, check, faults, consistency) land in ``other``.
_REPRO_LAYERS: _t.Tuple[_t.Tuple[str, str], ...] = (
    ("core.kernel", "core.kernel"),
    ("core.effects", "core.kernel"),
    ("net.wire", "net.wire"),
    ("sim", "sim"),
    ("core", "core"),
    ("client", "client"),
    ("storage", "storage"),
    ("net", "net"),
    ("mds", "mds"),
    ("rt", "rt"),
    ("workloads", "workloads"),
    ("analysis", "analysis"),
    ("obs", "obs"),
    ("util", "util"),
    ("fs", "fs"),
)

_STDLIB_FILES = {"selectors.py": "asyncio", "socket.py": "asyncio"}
_STDLIB_DIRS = {"asyncio": "asyncio", "json": "json"}
#: Pseudo-layer of time spent blocked, not working.
WAIT = "wait"
_BUILTIN_MARKS: _t.Tuple[_t.Tuple[str, str], ...] = (
    ("'poll' of 'select.epoll'", WAIT),
    ("_asyncio", "asyncio"),
    ("_socket", "asyncio"),
    ("select.", "asyncio"),
    ("_json", "json"),
    ("posix.", "os"),
)

Func = _t.Tuple[str, int, str]
Stats = _t.Dict[Func, _t.Tuple[int, int, float, float, _t.Dict[Func, _t.Any]]]


class Trace:
    """The profile of one traced repetition, kept in memory.

    The driver's own ``cProfile`` plus the dumps of any benchmark-owned
    subprocess (the rt shard), merged when the statistics are read.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._dumps: _t.List[pstats.Stats] = []

    def __enter__(self) -> "Trace":
        self._profile.enable()
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self._profile.disable()

    def add_dump(self, path: str) -> None:
        """Load a subprocess's ``dump_stats`` file (read now, merged later)."""
        self._dumps.append(pstats.Stats(path))

    def stats(self) -> Stats:
        merged = pstats.Stats(self._profile)
        for dump in self._dumps:
            merged.add(dump)
        return merged.stats  # type: ignore[attr-defined]


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(func: Func, repro_dir: str) -> _t.Optional[str]:
    """The layer a profiled function belongs to; ``None`` = its caller's."""
    filename, _line, name = func
    if filename == "~":
        for mark, layer in _BUILTIN_MARKS:
            if mark in name:
                return layer
        return None
    if filename.startswith(repro_dir):
        module = filename[len(repro_dir):].rsplit(".", 1)[0]
        module = module.replace(os.sep, ".")
        for prefix, layer in _REPRO_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"
    head, base = os.path.split(filename)
    if base in _STDLIB_FILES:
        return _STDLIB_FILES[base]
    return _STDLIB_DIRS.get(os.path.basename(head), "other")


def attribute(stats: Stats) -> _t.Dict[str, float]:
    """``{<layer>.self_s, <layer>.calls_in}`` per layer + ``rt.poll_wait_s``."""
    repro_dir = _repro_dir()
    cache: _t.Dict[Func, _t.Optional[str]] = {}

    def layer(func: Func) -> _t.Optional[str]:
        if func not in cache:
            cache[func] = layer_of(func, repro_dir)
        return cache[func]

    self_s = dict.fromkeys(LAYERS + (WAIT,), 0.0)
    calls_in = dict.fromkeys(LAYERS + (WAIT,), 0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        own = layer(func)
        if own is None:
            if not callers:
                self_s["other"] += tottime
            for caller, edge in callers.items():
                self_s[layer(caller) or "other"] += edge[2]
            continue
        self_s[own] += tottime
        for caller, edge in callers.items():
            theirs = layer(caller)
            if theirs is not None and theirs != own:
                calls_in[own] += edge[0]
    out: _t.Dict[str, float] = {"rt.poll_wait_s": self_s[WAIT]}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls_in"] = calls_in[name]
    return out


def calls_and_cumtime(
    stats: Stats, name: str, file_suffix: str = ""
) -> _t.Tuple[int, float]:
    """Total calls and cumulative seconds of functions named ``name``."""
    calls, cumtime = 0, 0.0
    for (filename, _line, func_name), entry in stats.items():
        if func_name == name and filename.endswith(file_suffix):
            calls += entry[1]
            cumtime += entry[3]
    return calls, cumtime
