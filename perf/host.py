"""Where the benchmark runs: checkout paths, host fingerprint, calibration."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
import typing as _t

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for shard data dirs.  Inside the checkout (the driver
#: allows no write outside it) and git-ignored; stays behind, empty.
TMP = os.path.join(ROOT, ".perf_tmp")


def scratch_dir(prefix: str) -> "tempfile.TemporaryDirectory[str]":
    """A directory under ``TMP``, removed when its ``with`` block ends."""
    os.makedirs(TMP, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=TMP)


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> _t.Dict[str, str]:
    """Environment for benchmark-owned subprocesses (``perf`` + ``repro``)."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([extra] if extra else [])
    )
    return env


def load_spec() -> _t.Dict[str, _t.Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def calibrate(rounds: int = 3, n: int = 1_000_000) -> float:
    """Best-of-``rounds`` seconds for a fixed pure-Python loop.

    Normalises host-time numbers across machines: divide a host time by
    this to compare two hosts.  Never used inside one comparison.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1000003
        best = min(best, time.perf_counter() - start)
    return best


def fingerprint() -> _t.Dict[str, _t.Any]:
    """CPU model, core count, interpreter: printed in the header only."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def process_cpu_s(pid: int) -> float:
    """utime + stime of another live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; split after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def loopback_rx_bytes() -> int:
    """Bytes the loopback interface has received (0 if unreadable)."""
    try:
        with open("/proc/net/dev") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name.strip() == "lo":
                    return int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return 0
