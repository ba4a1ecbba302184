"""Every module in ``examples/``, ``scripts/`` and ``benchmarks/`` imports.

Tier-1 collects only ``tests/``, so deleting a ``src/`` helper that one
of those files still calls would otherwise fail nothing.  Each file is
loaded under a private module name, so its ``__main__`` block does not
run.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("examples", "scripts", "benchmarks")
    for path in (ROOT / folder).glob("*.py")
)


def test_every_folder_has_modules():
    for folder in ("examples", "scripts", "benchmarks"):
        assert any(f.startswith(folder + "/") for f in FILES), folder


@pytest.mark.parametrize("relpath", FILES)
def test_module_imports(relpath, monkeypatch):
    name = "_import_check_" + relpath[: -len(".py")].replace("/", "_")
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
