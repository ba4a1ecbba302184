"""Parallel sweep harness: fan figure sweeps across worker processes.

The paper's figures are all sweep-shaped -- many seeds x many
configurations x many client counts -- but the ``bench_fig*.py`` modules
run serially in one interpreter.  This harness turns a *sweep spec*
(figure x seeds x configs) into independent **cells**, fans the cells
across a ``ProcessPoolExecutor``, and records each cell's *model*
outputs (ops/s, bytes/s, latency quantiles, scheduled events) into a
machine-readable ``BENCH_sim.json``.  Every number in a cell is a pure
function of (code, config, seed); host-time measurements (wall seconds,
events per host second) belong to ``perf/`` and are not taken here.

Result cache
------------
Each cell's result is cached under a content hash of

    (code fingerprint, figure, cell config, seed)

where the code fingerprint is the git tree hash plus a digest of any
uncommitted changes (falling back to hashing ``src/`` when git is
unavailable).  Re-running a sweep therefore only executes cells whose
code or config changed; everything else is served from
``benchmarks/out/cache/``.  The simulator is deterministic (same seed,
same config => bit-identical run) and a cell records nothing else, which
is what makes caching *sound*: a cached cell is equal to a re-run one.

Usage
-----
::

    python -m repro bench --figure fig3 --seeds 8
    python benchmarks/harness.py --figure smoke --seeds 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import typing as _t
from concurrent.futures import ProcessPoolExecutor, as_completed

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:  # direct `python benchmarks/harness.py`
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

DEFAULT_CACHE_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "out", "cache"
)
DEFAULT_OUT = os.path.join(_REPO_ROOT, "BENCH_sim.json")

# ---------------------------------------------------------------------------
# Sweep specs
# ---------------------------------------------------------------------------

#: Workload cells beyond :data:`repro.workloads.PAPER_WORKLOADS`, as
#: ``XcdnWorkload`` constructor kwargs.  ``xcdn-scale`` is a lean
#: per-personality footprint for the client-count scaling sweep: at 10k
#: clients the default seed corpus and thread count would swamp the
#: volume and the calendar before measurement starts.
SCALE_WORKLOADS: _t.Dict[str, _t.Dict[str, int]] = {
    "xcdn-scale": {
        "file_size": 32 * 1024,
        "seed_files_per_client": 2,
        "threads_per_client": 2,
    },
}

REDBUD_SYSTEMS = ["redbud-original", "redbud-delayed"]
ALL_SYSTEMS = ["pvfs2", "nfs3", "redbud-original", "redbud-delayed"]


def _cells(
    systems: _t.List[str],
    workloads: _t.List[str],
    clients: _t.List[int],
    duration: float = 1.0,
    warmup: float = 0.2,
    shards: int = 1,
) -> _t.List[_t.Dict[str, _t.Any]]:
    # ``shards`` is part of every cell so the cache key hashes it:
    # sharded runs of the same (system, workload, seed) can never
    # collide in the result cache or BENCH_sim.json.
    return [
        {
            "system": system,
            "workload": workload,
            "clients": n,
            "duration": duration,
            "warmup": warmup,
            "shards": shards,
        }
        for system in systems
        for workload in workloads
        for n in clients
    ]


#: Figure name -> base cells (before the seed axis multiplies them).
#: Mirrors the shape of the corresponding ``bench_fig*.py`` module with
#: durations sized for sweeping, not for the paper's shape assertions.
FIGURE_SWEEPS: _t.Dict[str, _t.List[_t.Dict[str, _t.Any]]] = {
    "fig1": _cells(REDBUD_SYSTEMS, ["xcdn-32K", "xcdn-1M"], [7]),
    "fig3": _cells(
        ALL_SYSTEMS,
        [
            "fileserver",
            "varmail",
            "webproxy",
            "xcdn-32K",
            "xcdn-1M",
            "npb-bt",
        ],
        [7],
    ),
    "fig4": _cells(
        REDBUD_SYSTEMS, ["xcdn-32K", "xcdn-64K", "xcdn-1M"], [7]
    ),
    "fig5": _cells(REDBUD_SYSTEMS, ["xcdn-32K", "xcdn-1M"], [7]),
    "fig6": _cells(["redbud-delayed"], ["varmail", "xcdn-32K"], [4, 7]),
    "fig7": _cells(["redbud-delayed"], ["varmail"], [2, 4, 7]),
    "smoke": _cells(["redbud-delayed"], ["xcdn-32K"], [4], duration=0.5),
}


def _scale_cell(
    clients: int,
    processes: int,
    duration: float = 0.25,
    warmup: float = 0.05,
) -> _t.Dict[str, _t.Any]:
    """One client-count scaling cell (delayed commit, lean xcdn):
    ``clients`` personalities multiplexed onto ``processes`` nodes.

    ``delegation_chunk`` is shrunk so 10k clients' delegated chunks fit
    the volume; all scale cells share it so they compare like with like.
    """
    return {
        "system": "redbud-delayed",
        "workload": "xcdn-scale",
        "clients": clients,
        "duration": duration,
        "warmup": warmup,
        "shards": 1,
        "config": {"delegation_chunk": 1024 * 1024},
        "processes": processes,
    }


#: The client-count scaling figure: aggregate clients at 1k and 10k.
FIGURE_SWEEPS["clients"] = [
    _scale_cell(1000, processes=8),
    _scale_cell(10000, processes=16, duration=0.12, warmup=0.03),
]

#: CI-sized subset: the 1000-client cell (10k stays out of the smoke
#: path).
FIGURE_SWEEPS["scale-smoke"] = [_scale_cell(1000, processes=8)]


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def code_fingerprint(root: str = _REPO_ROOT) -> str:
    """Content hash of the code a cell's result depends on.

    Committed state is captured by the git *tree* hash (not the commit
    hash -- rebases and amended messages must not invalidate the cache),
    plus a digest of uncommitted modifications *and* of untracked files
    under ``src/`` and ``benchmarks/``.  Untracked coverage matters:
    a brand-new module (say a fresh ``repro.storage`` elevator) is
    invisible to ``git diff HEAD``, and without it stale cells were
    served for code the cache key had never seen.  Falls back to
    hashing every Python file under ``src/`` and ``benchmarks/`` when
    git is unavailable.
    """
    try:
        tree = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD^{tree}"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", root, "diff", "HEAD", "--", "src", "benchmarks"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        if dirty:
            tree += "+" + hashlib.sha256(dirty.encode()).hexdigest()[:16]
        untracked = subprocess.run(
            [
                "git", "-C", root, "ls-files", "--others",
                "--exclude-standard", "--", "src", "benchmarks",
            ],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split("\n")
        extra = hashlib.sha256()
        seen = False
        for rel in sorted(p for p in untracked if p):
            path = os.path.join(root, rel)
            try:
                with open(path, "rb") as fh:
                    content = fh.read()
            except OSError:
                continue
            seen = True
            extra.update(rel.encode())
            extra.update(content)
        if seen:
            tree += "~" + extra.hexdigest()[:16]
        return tree
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for top in ("src", "benchmarks"):
            tree_root = os.path.join(root, top)
            if not os.path.isdir(tree_root):
                continue
            for dirpath, dirnames, filenames in sorted(
                os.walk(tree_root)
            ):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        path = os.path.join(dirpath, name)
                        digest.update(
                            os.path.relpath(path, root).encode()
                        )
                        with open(path, "rb") as fh:
                            digest.update(fh.read())
        return "src-" + digest.hexdigest()


def cell_key(fingerprint: str, cell: _t.Dict[str, _t.Any]) -> str:
    """Stable cache key for one (code, config, seed) cell."""
    payload = json.dumps(
        {"code": fingerprint, "cell": cell}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """One JSON file per completed cell under ``benchmarks/out/cache/``."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> _t.Optional[_t.Dict[str, _t.Any]]:
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, result: _t.Dict[str, _t.Any]) -> None:
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        os.replace(tmp, self._path(key))


# ---------------------------------------------------------------------------
# Cell execution (runs inside worker processes)
# ---------------------------------------------------------------------------


def run_cell(cell: _t.Dict[str, _t.Any]) -> _t.Dict[str, _t.Any]:
    """Run one simulation cell; returns a JSON-friendly result record."""
    from repro.fs import build_cluster
    from repro.workloads import PAPER_WORKLOADS, XcdnWorkload

    name = cell["workload"]
    if name in SCALE_WORKLOADS:
        workload = XcdnWorkload(**SCALE_WORKLOADS[name])
    else:
        workload = PAPER_WORKLOADS[name]()
    extra = dict(cell.get("config") or {})
    if cell.get("processes"):
        extra["client_processes"] = cell["processes"]
    cluster = build_cluster(
        cell["system"],
        num_clients=cell["clients"],
        seed=cell["seed"],
        shards=cell.get("shards", 1),
        **extra,
    )
    result = cluster.run_workload(
        workload, duration=cell["duration"], warmup=cell["warmup"]
    )
    latency = result.latency()
    return {
        "cell": cell,
        "ops_completed": result.ops_completed,
        "ops_per_second": result.ops_per_second,
        "bytes_per_second": result.bytes_per_second,
        # Tail-latency columns (virtual seconds, pooled over op types).
        "latency_mean": latency.mean,
        "latency_p50": latency.p50,
        "latency_p99": latency.p99,
        "latency_p999": latency.p999,
        "events": cluster.env.scheduled_events,
    }


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


def sweep_cells(
    figure: str, seeds: int, base_seed: int = 11, shards: int = 1
) -> _t.List[_t.Dict[str, _t.Any]]:
    """Expand a figure's base cells along the seed axis.

    ``shards`` > 1 re-targets every redbud cell at a sharded metadata
    service (an extra sweep axis); pvfs2/nfs3 cells have no MDS to
    shard and keep ``shards=1``.
    """
    if figure not in FIGURE_SWEEPS:
        raise KeyError(
            f"unknown figure {figure!r}; choose from "
            f"{sorted(FIGURE_SWEEPS)}"
        )
    if seeds <= 0:
        raise ValueError(f"seeds must be positive, got {seeds}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    cells = []
    for cell in FIGURE_SWEEPS[figure]:
        if shards > 1 and cell["system"].startswith("redbud"):
            cell = dict(cell, shards=shards)
        for i in range(seeds):
            cells.append(dict(cell, seed=base_seed + i))
    return cells


def run_sweep(
    figure: str,
    seeds: int = 4,
    base_seed: int = 11,
    shards: int = 1,
    jobs: _t.Optional[int] = None,
    cache: _t.Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: _t.Optional[_t.Callable[[str], None]] = None,
) -> _t.Dict[str, _t.Any]:
    """Run one figure sweep, parallel and incrementally cached.

    Returns the report later written to ``BENCH_sim.json``.
    """
    say = progress or (lambda _msg: None)
    cache = cache or ResultCache()
    fingerprint = code_fingerprint()
    cells = sweep_cells(figure, seeds, base_seed, shards)

    keyed = [(cell_key(fingerprint, cell), cell) for cell in cells]
    results: _t.Dict[str, _t.Dict[str, _t.Any]] = {}
    pending: _t.List[_t.Tuple[str, _t.Dict[str, _t.Any]]] = []
    for key, cell in keyed:
        hit = cache.get(key) if use_cache else None
        if hit is not None:
            hit = dict(hit, cached=True)
            results[key] = hit
        else:
            pending.append((key, cell))
    say(
        f"{figure}: {len(cells)} cells "
        f"({len(results)} cached, {len(pending)} to run)"
    )

    if pending:
        if jobs is None:
            jobs = os.cpu_count() or 1
        jobs = max(1, min(jobs, len(pending)))
        # Fork keeps the workers' module state (sys.path included)
        # identical to the parent's without re-importing.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            futures = {
                pool.submit(run_cell, cell): key for key, cell in pending
            }
            done = 0
            for future in as_completed(futures):
                key = futures[future]
                record = dict(future.result(), cached=False)
                cache.put(key, {k: v for k, v in record.items()
                                if k != "cached"})
                results[key] = record
                done += 1
                cell = record["cell"]
                say(
                    f"  [{done}/{len(pending)}] {cell['system']}"
                    f"/{cell['workload']} seed={cell['seed']}: "
                    f"{record['ops_per_second']:,.0f} ops/s, "
                    f"{record['events']:,} events"
                )

    ordered = [results[key] for key, _ in keyed]
    cached = sum(1 for r in ordered if r["cached"])
    return {
        "figure": figure,
        "seeds": seeds,
        "base_seed": base_seed,
        "shards": shards,
        "code": fingerprint,
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        ),
        "jobs": jobs,
        "totals": {
            "cells": len(ordered),
            "cached_cells": cached,
            "executed_cells": len(ordered) - cached,
            "events": sum(r["events"] for r in ordered),
        },
        "cells": ordered,
    }


def write_report(report: _t.Dict[str, _t.Any], path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# CLI (also reachable as ``python -m repro bench``)
# ---------------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between this module's CLI and ``repro bench``."""
    parser.add_argument(
        "--figure",
        choices=sorted(FIGURE_SWEEPS),
        default="smoke",
        help="which sweep to run (default %(default)s)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="seeds per configuration (default %(default)s)",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=11,
        help="first seed of the seed axis (default %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="metadata shards for redbud cells (extra sweep axis; "
        "default %(default)s, keyed into the result cache)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help="report path (default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="cell result cache directory (default %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached cells (still refreshes the cache)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    report = run_sweep(
        figure=args.figure,
        seeds=args.seeds,
        base_seed=args.base_seed,
        shards=args.shards,
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir),
        use_cache=not args.no_cache,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    write_report(report, args.out)
    totals = report["totals"]
    print(
        f"{report['figure']}: {totals['cells']} cells "
        f"({totals['cached_cells']} cached), "
        f"{totals['events']:,} simulated events; "
        f"report -> {args.out}"
    )
    return 0


def main(argv: _t.Optional[_t.List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel, cached benchmark sweep harness"
    )
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
