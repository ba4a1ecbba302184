"""The acceptance gate for the effects refactor.

The protocol stack -- ``repro.core.*``, ``repro.client``, ``repro.mds``,
``repro.net`` -- and the asyncio substrate must import without pulling
in a single ``repro.sim`` module: the simulator is one substrate among
two, not a dependency of the protocol.  Each module is imported in a
fresh interpreter so nothing cached in this test process can mask a
transitive leak.
"""

import importlib
import json
import subprocess
import sys

import pytest

PROTOCOL_MODULES = [
    "repro.core",
    "repro.core.commit_queue",
    "repro.core.compound",
    "repro.core.daemon",
    "repro.core.delegation",
    "repro.core.effects",
    "repro.core.kernel",
    "repro.core.protocol",
    "repro.core.records",
    "repro.core.thread_pool",
    "repro.core.witness",
    "repro.client.client",
    "repro.mds.allocation",
    "repro.mds.extent",
    "repro.mds.namespace",
    "repro.mds.server",
    "repro.mds.sharding",
    "repro.net.link",
    "repro.net.messages",
    "repro.net.rpc",
    "repro.net.wire",
    "repro.rt",
    "repro.rt.disk",
    "repro.rt.effects",
    "repro.rt.server",
    "repro.rt.transport",
]

_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
leaked = sorted(
    name for name in sys.modules
    if name == "repro.sim" or name.startswith("repro.sim.")
)
print(json.dumps(leaked))
"""


def _sim_modules_pulled_by(module: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, (
        f"importing {module} failed:\n{proc.stderr}"
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", PROTOCOL_MODULES)
def test_protocol_module_is_substrate_free(module):
    leaked = _sim_modules_pulled_by(module)
    assert leaked == [], (
        f"{module} transitively imports the simulator: {leaked}"
    )


def test_no_source_level_sim_import_in_protocol_layer():
    """Belt and braces: grep the protocol sources for ``repro.sim``
    import statements (docstring cross-references are fine)."""
    import pathlib
    import re

    pattern = re.compile(
        r"^\s*(from\s+repro\.sim|import\s+repro\.sim)", re.MULTILINE
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for layer in ("core", "client", "mds", "net", "rt"):
        for path in sorted((src / layer).rglob("*.py")):
            if path.name == "smoke.py":
                # The smoke auditor borrows repro.consistency tooling,
                # which lives with the sim-side harness; it is a
                # driver, not a protocol module.
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path.relative_to(src)))
    assert offenders == [], (
        f"protocol sources import repro.sim: {offenders}"
    )


def test_sim_effects_is_the_kernel_environment():
    """``repro.sim`` is the substrate and nothing else: the engine under
    its two names and its error; the calendar is the engine's own heap,
    not an export.  Kernel classes have one home,
    :mod:`repro.core.kernel`."""
    import repro.sim
    from repro.core.effects import Effects
    from repro.sim import Environment, SimEffects

    assert issubclass(Environment, Effects)
    assert SimEffects is Environment
    assert sorted(repro.sim.__all__) == [
        "Environment",
        "SimEffects",
        "SimulationError",
    ]


@pytest.mark.parametrize(
    "shim", ["effects", "events", "process", "resources", "rng"]
)
def test_deleted_sim_shim_is_not_importable(shim):
    with pytest.raises(ImportError):
        importlib.import_module(f"repro.sim.{shim}")


def test_lazy_core_exports_resolve():
    from repro.core import (  # noqa: F401
        AdaptiveCommitThreadPool,
        CommitDaemonContext,
        CommitQueue,
        CommitRecord,
        CompoundController,
        DoubleSpacePool,
        Effects,
    )

    import repro.core as core

    with pytest.raises(AttributeError):
        core.NotAnExport
