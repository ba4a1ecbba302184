"""A run makes no cyclic garbage: reference counting frees the model's.

This is why ``Environment.run`` may pause CPython's cyclic collector
without letting memory grow inside a run.  The tests turn the collector
off themselves, so ``run`` leaves it alone and settles no full pass, and
then ask one ``gc.collect()`` what the run left behind while the cluster
is still referenced.

The one cycle a run does make is a dead client's: each of its processes
parks forever on an event nothing else holds, and the parked process
and that event reference each other (the event's callback resumes the
process; the process's target lets an interrupt unsubscribe it).
"""

import gc

import pytest

from repro.check.explorer import run_schedule
from repro.core.kernel.process import Process
from repro.faults import FaultSpec
from repro.fs import build_cluster
from repro.workloads import XcdnWorkload


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    gc.set_debug(0)
    del gc.garbage[:]
    if was:
        gc.enable()


def test_seeded_delayed_run_makes_no_cycles(collector_off):
    cluster = build_cluster("redbud-delayed", num_clients=2, seed=7)
    gc.collect()  # whatever the build left is not the run's
    result = cluster.run_workload(
        XcdnWorkload(file_size=32 * 1024, seed_files_per_client=20),
        duration=0.3,
        warmup=0.05,
    )
    assert result.ops_completed > 0
    assert gc.collect() == 0
    assert cluster.env.now > 0


def test_faulted_schedule_makes_no_cycles(collector_off):
    gc.collect()
    outcome = run_schedule(
        FaultSpec.parse("loss=0.1,mds_restart@0.1:0.05"), seed=5
    )
    stats = outcome.cluster.injector.stats
    assert stats.messages_dropped > 0
    assert stats.mds_restarts == 1
    assert outcome.verdict.ok
    assert gc.collect() == 0


def test_only_a_dead_clients_parked_threads_are_cycles(collector_off):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    outcome = run_schedule(FaultSpec.parse("client_death=1@0.1"), seed=5)
    assert outcome.cluster.injector.stats.client_deaths == 1
    assert gc.collect() > 0
    parked = sorted(o.name for o in gc.garbage if isinstance(o, Process))
    assert parked == ["op-c1-t0", "op-c1-t1"]
