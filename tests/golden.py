"""Golden digests and the recipes that reproduce them.

A blktrace digest is the sha256 over ``repr()`` of every blktrace row of
a fixed-seed run; a report digest is the sha256 over a check or soak
report's JSON, or over a CLI verb's exit code and ``--json`` output.
Each table below was captured once, on the tree named in its comment,
and is only ever copied: drift in any of them means a change altered
scheduling order or RNG draws.

``PYTHONPATH=src python -m tests.golden NAME...`` prints the digest of
each named ``REPORTS`` recipe, and the blktrace digest and scheduled
events of each named ``TRACES`` run, so a pin is captured on a checkout
of the tree it names with one command.
"""

import contextlib
import hashlib
import io
import json
import sys

from repro.check import explore
from repro.check.soak import run_soak
from repro.fs.factory import build_cluster
from repro.workloads.filebench import (
    FileserverWorkload,
    VarmailWorkload,
    WebproxyWorkload,
)
from repro.workloads.xcdn import XcdnWorkload

#: Workload recipes by name (a fresh instance per run).
WORKLOADS = {
    "fileserver": lambda: FileserverWorkload(seed_files_per_client=15),
    "varmail": lambda: VarmailWorkload(seed_files_per_client=15),
    "xcdn-32K": lambda: XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=25
    ),
    "xcdn-1M": lambda: XcdnWorkload(
        file_size=1024 * 1024, seed_files_per_client=8
    ),
    "xcdn-32K-lean": lambda: XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=6
    ),
    # The two personalities ``perf/`` measures.
    "xcdn-32K-paper": lambda: XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=200
    ),
    "fileserver-paper": lambda: FileserverWorkload(seed_files_per_client=100),
    "webproxy": lambda: WebproxyWorkload(seed_files_per_client=15),
    # ``perf/``'s scale-cell personality.
    "xcdn-32K-scale": lambda: XcdnWorkload(
        file_size=32 * 1024, seed_files_per_client=2, threads_per_client=2
    ),
}

#: Run shapes; every golden run uses seed 11.
LEGACY_CELL = {"num_clients": 3, "duration": 0.4, "warmup": 0.1}
LEAN_CELL = {"num_clients": 4, "duration": 0.3, "warmup": 0.05}
PAPER_CELL = {"num_clients": 7, "duration": 2.0, "warmup": 0.2}

#: ``LEGACY_CELL`` runs, captured from the unsharded, unreplicated
#: implementation: (system, workload) -> digest.
GOLDEN = {
    ("redbud-original", "fileserver"): (
        "e0aba651eedba87024513426d2c2190ab61f25a6049e71961b0846a855834ca0"
    ),
    ("redbud-delayed", "varmail"): (
        "7b344555dd2b09f7e0bb466180bab05b39920fe475ffa5f5e179b7f0cb1cd433"
    ),
    ("redbud-original", "xcdn-32K"): (
        "ba1736842b581cdf38c14f6d153bfb8e0fa59ae9540d86382d45890ea0e1e0ce"
    ),
    ("redbud-delayed", "xcdn-32K"): (
        "f3612d92229816235f0bab0aee6d179d20dc2ea67a5f095355a692944e65ccc9"
    ),
    ("redbud-delayed", "xcdn-1M"): (
        "4539524e2704a6485ea80f5cf56de8d7a8e8f535f323e84ed0ccea086fbf2382"
    ),
}

#: ``LEAN_CELL`` runs of ``xcdn-32K-lean``, recorded before the protocol
#: layer was ported onto the effects boundary.
EFFECTS_GOLDEN = {
    "redbud-delayed": (
        "1db28146ca57e1254a67fbb9ca0b32421885f2e0bf3db879d35443e91afde53e"
    ),
    "redbud-delayed-shards2": (
        "12512764744b61ca1951520d0cb4c402ba8a9b4da62ab79b9c7808d44ec612a7"
    ),
    "redbud-original": (
        "ee37ff87736331481d6e2705e326d32f5843a367ec6985d8dee1bb0a924a9cea"
    ),
}

#: ``PAPER_CELL`` runs -- the two paper cells ``perf/`` measures, so the
#: identity the benchmark enforces between commits (same block trace,
#: same number of scheduled events) is also enforced in tier-1:
#: name -> (system, workload, digest, scheduled_events).
PAPER_CELLS = {
    "sim-paper-delayed": (
        "redbud-delayed",
        "xcdn-32K-paper",
        "55e898defe3f065c72aab3c59b7214a94d6e9b2510e80b27413ce55480af3e15",
        271888,
    ),
    "sim-paper-sync": (
        "redbud-original",
        "fileserver-paper",
        "21e8c535d541b74dae49ea1c5918c7709c7f90a181286e95b667a112914de755",
        128309,
    ),
}

#: Runs through the shared file registry that no table above covers:
#: remote picks over an aggregated namespace, and webproxy's own-file
#: deletes.  name -> (system, workload, run shape plus config).
TRACES = {
    "xcdn-aggregate-1k": (
        "redbud-delayed",
        "xcdn-32K-scale",
        {
            "num_clients": 1000, "duration": 0.3, "warmup": 0.05,
            "client_processes": 8, "delegation_chunk": 1024 * 1024,
        },
    ),
    "webproxy-delayed": ("redbud-delayed", "webproxy", LEGACY_CELL),
    "webproxy-original": ("redbud-original", "webproxy", LEGACY_CELL),
}

#: ``TRACES`` runs, captured on the tree whose registry was two plain
#: lists every pick and delete scanned: name -> (digest, scheduled_events).
TRACE_GOLDEN = {
    "xcdn-aggregate-1k": (
        "c96bc1a7321791b8fdca22332beb0e16e5e3c5edc1c121eba6e600e569c4d015",
        108054,
    ),
    "webproxy-delayed": (
        "7241be7616862dd5910bd822dc80665fe095e3d7ab16724e70850609491402e2",
        19757,
    ),
    "webproxy-original": (
        "6ca3e741b5c91552d32a6cb3ae7ddda01b29c421254882aa85391e594d7fd3c9",
        17388,
    ),
}


#: ``REPORTS`` digests: name -> digest.  The recipes' reports were first
#: pinned on the tree whose explorer, soak and crash launchers each
#: still hand-rolled their own open-ended driver (CLI recipes: on the
#: tree whose verbs armed retry, seed bugs and faults by hand;
#: ``soak-0.25h-quiet``: on the tree whose soak armed RPC retry whether
#: or not its nemesis plan held any action).  Every digest was re-pinned
#: once, when storage-group replication was retired: each report is
#: the previous one with the ``replication``, ``disk_losses`` and
#: ``disk_readmissions`` keys removed and a ``witness_capacity`` key
#: added to check and soak reports, and nothing else changed
#: (``scripts/report_key_diff.py`` shows it against a checkout of the
#: earlier tree).
REPORT_GOLDEN = {
    "check-budget16": (
        "ebd91a309fce96869e97fff9e66181e8e12e76982ddcf63c0910c5927a2ca09c"
    ),
    "check-budget16-shards2": (
        "83ca3c5a9b723c648be9f265ac03d05ed5b0b01769e6d1e9e88efceec89cee6b"
    ),
    "soak-0.25h": (
        "6f441328567ffb7f3fceaab8a8a1645d294eba1a8accdf18c3c512f906233e74"
    ),
    "run-faults-degrade-check": (
        "e0439001529a7c6f9af115e229406beb1e00ae7ae4e0584a9d6d5581eb4d66f3"
    ),
    "slo-shards2-restart": (
        "06cff56105ce0742ec9bdf4816362629fea09b85a656c9de27cf2f140a8889d2"
    ),
    "soak-0.25h-quiet": (
        "bad8231544740f401c1fd6a6c9fb87afe402fb9d4737f22c0440ddcfe55a95ec"
    ),
}


def _check_report(**scope):
    return json.dumps(
        explore(budget=16, seed=0, **scope).as_dict(), sort_keys=True
    )


def _soak_stream(**knobs):
    lines = []
    run_soak(
        0.25, seed=0, **knobs,
        emit=lambda entry: lines.append(json.dumps(entry, sort_keys=True)),
    )
    return "\n".join(lines)


def _cli_report(*argv):
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


#: Report recipes by name: each returns the report text digested.
REPORTS = {
    "check-budget16": _check_report,
    "check-budget16-shards2": lambda: _check_report(shards=2),
    "soak-0.25h": _soak_stream,
    "soak-0.25h-quiet": lambda: _soak_stream(intensity=0.001),
    "run-faults-degrade-check": lambda: _cli_report(
        "run", "--system", "redbud-delayed", "--clients", "3",
        "--duration", "0.4", "--faults", "loss=0.05,mds_restart@0.2:0.1",
        "--seed-bug", "degrade", "--check", "--json",
    ),
    "slo-shards2-restart": lambda: _cli_report(
        "slo", "--systems", "redbud-delayed", "--shards", "2",
        "--clients", "3", "--duration", "0.4",
        "--faults", "mds_restart@0.2:0.1:shard=1", "--json",
    ),
}


def report_digest(name):
    return hashlib.sha256(REPORTS[name]().encode()).hexdigest()


def run_cell(system, workload, *, num_clients, duration, warmup, **config):
    """Build a seed-11 cluster, run ``WORKLOADS[workload]``, return it."""
    cluster = build_cluster(
        system, num_clients=num_clients, seed=11, **config
    )
    cluster.run_workload(
        WORKLOADS[workload](), duration=duration, warmup=warmup
    )
    return cluster


def blktrace_digest(cluster):
    digest = hashlib.sha256()
    for row in cluster.blktrace.to_rows():
        digest.update(repr(row).encode())
    return digest.hexdigest()


def trace_digest(system, workload, **cell):
    """Digest of one run: ``cell`` is a run shape plus any
    ``build_cluster`` keyword (``shards=``, ``witness_capacity=``, ...)."""
    return blktrace_digest(run_cell(system, workload, **cell))


def trace_pin(name):
    """``(digest, scheduled_events)`` of the ``TRACES`` run ``name``."""
    system, workload, cell = TRACES[name]
    cluster = run_cell(system, workload, **cell)
    return blktrace_digest(cluster), cluster.env.scheduled_events


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name in TRACES:
            print(name, *trace_pin(name))
        else:
            print(name, report_digest(name))
