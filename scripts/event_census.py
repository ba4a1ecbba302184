#!/usr/bin/env python
"""Count a run's scheduled events by the call site that scheduled them.

Runs one seed-11 recipe of ``tests/golden.py`` (a ``PAPER_CELLS`` or a
``TRACES`` name) with ``Environment.schedule`` wrapped, and prints one
row per scheduling call site: events, share of the run's
``scheduled_events``, how many had zero delay, the event's class, and
the site.  The site is the innermost frame outside the kernel
(``repro.core.kernel``, ``repro.core.effects``, ``repro.sim.engine``);
an event the kernel schedules on its own while dispatching (a process
ending, a condition firing) is charged to the kernel callback the
engine ran.  From the
repository root::

    PYTHONPATH=src python scripts/event_census.py sim-paper-delayed
"""

import argparse
import collections
import contextlib
import os
import sys
import typing as _t

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Kernel files, relative to ``src/repro``: frames here are looked
#: through to find who asked for the event.
_KERNEL = ("core/kernel/", "core/effects.py", "sim/engine.py")

#: Engine functions that dispatch events: a walk that reaches one has
#: left the code that scheduled the event.
_DISPATCH = frozenset(("_run", "step"))

Census = _t.Counter[_t.Tuple[str, str, bool]]


def _module(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    _head, sep, tail = path.rpartition("/repro/")
    if not sep:
        return os.path.splitext(os.path.basename(path))[0]
    return "repro." + tail[: -len(".py")].replace("/", ".")


def _is_kernel(filename: str) -> bool:
    path = filename.replace(os.sep, "/")
    return any(f"/repro/{part}" in path for part in _KERNEL)


def site(frame: _t.Any) -> str:
    """``module.function`` of the frame that asked for an event."""
    callback = frame
    while frame is not None:
        code = frame.f_code
        if not _is_kernel(code.co_filename):
            break
        if code.co_name in _DISPATCH and code.co_filename.endswith(
            "engine.py"
        ):
            # Scheduled by the kernel's own callback: name that.
            code = callback.f_code
            break
        callback = frame
        frame = frame.f_back
    return f"{_module(code.co_filename)}.{code.co_name}"


@contextlib.contextmanager
def counting(census: Census) -> _t.Iterator[None]:
    """Tally every ``Environment.schedule`` call into ``census`` as
    ``(site, event class, zero delay)``."""
    from repro.core.kernel.events import PRIORITY_NORMAL
    from repro.sim.engine import Environment

    original = Environment.schedule

    def schedule(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        census[site(sys._getframe(1)), type(event).__name__, delay == 0] += 1
        original(self, event, delay, priority)

    Environment.schedule = schedule
    try:
        yield
    finally:
        Environment.schedule = original


def run(name: str) -> _t.Tuple[Census, int]:
    """The census of recipe ``name`` and its ``scheduled_events``."""
    from tests import golden

    if name in golden.PAPER_CELLS:
        system, workload, _digest, _events = golden.PAPER_CELLS[name]
        cell = golden.PAPER_CELL
    elif name in golden.TRACES:
        system, workload, cell = golden.TRACES[name]
    else:
        names = sorted([*golden.PAPER_CELLS, *golden.TRACES])
        raise KeyError(f"unknown recipe {name!r}; one of {names}")
    census: Census = collections.Counter()
    with counting(census):
        cluster = golden.run_cell(system, workload, **cell)
    return census, cluster.env.scheduled_events


def table(census: Census, total: int) -> _t.List[str]:
    """Rows by site and class, most events first."""
    events: _t.Counter[_t.Tuple[str, str]] = collections.Counter()
    zero: _t.Counter[_t.Tuple[str, str]] = collections.Counter()
    for (where, kind, zero_delay), count in census.items():
        events[where, kind] += count
        if zero_delay:
            zero[where, kind] += count
    lines = [f"{'events':>9} {'share':>6} {'zero':>9}  class  site"]
    for (where, kind), count in sorted(
        events.items(), key=lambda item: (-item[1], item[0])
    ):
        lines.append(
            f"{count:>9} {100.0 * count / total:>5.1f}% "
            f"{zero[where, kind]:>9}  {kind}  {where}"
        )
    lines.append(
        f"{sum(events.values()):>9} {'':>6} {sum(zero.values()):>9}  "
        f"(scheduled_events {total})"
    )
    return lines


def main(argv: _t.Optional[_t.List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME")
    args = parser.parse_args(argv)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in args.names:
        census, total = run(name)
        print(f"{name}: {total} scheduled events")
        for line in table(census, total):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
