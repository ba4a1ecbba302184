"""Compare two ``perf.run --out`` files against the benchmark's bounds.

    python3 -m perf.compare BASE.json CHANGE.json

One row per workload x end-to-end metric: both values, how much worse
CHANGE is than BASE as a share of BASE (negative = better), and the bound
from ``BENCHMARK.json``.  Exits non-zero if any metric is worse by more
than its bound, or if a deterministic workload run with the same seed no
longer produces the same operations, events and block trace.
"""

from __future__ import annotations

import argparse
import json
import typing as _t

from perf import host

IDENTITY_KEYS = ("ops_per_repetition", "scheduled_events", "trace_sha256")


def worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def _untraced(path: str) -> _t.Dict[str, _t.Dict[str, _t.Any]]:
    with open(path) as handle:
        document = json.load(handle)
    return {
        r["workload"]: r for r in document["results"] if not r["traced"]
    }


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = host.load_spec()
    base, change = _untraced(args.base), _untraced(args.change)
    beyond = 0
    print(
        f"{'workload':18s} {'metric':18s} {'base':>12s} {'change':>12s} "
        f"{'worse by':>9s} {'bound':>6s}"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            continue
        a, b = base[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x = a["metrics"][name]["value"]
            y = b["metrics"][name]["value"]
            worse = worsening(x, y, metric["better"])
            over = worse > metric["bound"]
            beyond += over
            print(
                f"{workload:18s} {name:18s} {x:12.5g} {y:12.5g} "
                f"{worse:+9.2%} {metric['bound']:6.2f}"
                f"{'  BEYOND BOUND' if over else ''}"
            )
        if a["seed"] == b["seed"] and "trace_sha256" in a["info"]:
            same = all(
                a["info"][k] == b["info"][k] for k in IDENTITY_KEYS
            )
            beyond += not same
            print(
                f"{workload:18s} ops/events/trace digest "
                f"{'identical' if same else 'DIFFERENT'}"
            )
    return 1 if beyond else 0


if __name__ == "__main__":
    raise SystemExit(main())
