"""``scripts/event_census.py`` on a small pinned run."""

import importlib.util
import pathlib
import sys

from repro.sim.engine import Environment
from tests.golden import TRACE_GOLDEN

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2] / "scripts" / "event_census.py"
)


def _census_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("_event_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "_event_census", module)
    spec.loader.exec_module(module)
    return module


def test_census_accounts_for_every_scheduled_event(monkeypatch):
    census_script = _census_module(monkeypatch)
    schedule = Environment.schedule
    census, total = census_script.run("webproxy-delayed")
    assert Environment.schedule is schedule  # unwrapped again
    assert total == TRACE_GOLDEN["webproxy-delayed"][1]
    assert sum(census.values()) == total

    by_class = {}
    for (site, kind, _zero), count in census.items():
        by_class.setdefault(kind, {}).setdefault(site, 0)
        by_class[kind][site] += count
    # Inbox deliveries make no put event; daemons' gets are served there.
    assert "StorePut" not in by_class
    assert by_class["StoreGet"]["repro.net.rpc.deliver"] > 0
    # Uncontended lock grants are made in place: the grants left on the
    # calendar are fewer than the requests served.
    served = by_class["Timeout"]["repro.mds.server._daemon_iterations"] // 2
    assert 0 < by_class["Request"]["repro.mds.server._daemon_iterations"]
    assert by_class["Request"]["repro.mds.server._daemon_iterations"] < served

    lines = census_script.table(census, total)
    assert lines[-1].split()[0] == str(total)
    assert lines[-1].endswith(f"(scheduled_events {total})")
