"""FaultTracker: scopes, record lifetimes, excusal queries."""

from repro.faults import FaultTracker, scopes_overlap
from repro.faults.tracking import CLUSTER_WIDE


def test_scopes_overlap_rules():
    assert scopes_overlap(("client", 3), ("client", 3))
    assert not scopes_overlap(("client", 3), ("client", 4))
    assert not scopes_overlap(("client", 3), ("shard", 3))
    assert scopes_overlap(("client", "*"), ("client", 7))
    assert scopes_overlap(("net", "*"), ("net", 2))
    assert scopes_overlap(CLUSTER_WIDE, ("client", 3))
    assert scopes_overlap(("shard", 1), CLUSTER_WIDE)


def test_record_lifetimes():
    tracker = FaultTracker()
    ranged = tracker.begin("partition", ("client", 0), 1.0, heal_at=3.0)
    point = tracker.begin("mds_crash", ("mds", "*"), 2.0)
    forever = tracker.begin(
        "client_death", ("client", 1), 2.5, permanent=True
    )
    assert not ranged.point and point.point and not forever.point
    assert ranged.active_at(1.0) and ranged.active_at(2.9)
    assert not ranged.active_at(3.0) and not ranged.active_at(0.9)
    # Point events flash and are gone; permanent faults never end.
    assert not point.active_at(2.0)
    assert forever.active_at(2.5) and forever.active_at(1e9)
    assert [r.fault_id for r in tracker.active(2.6)] == [
        ranged.fault_id,
        forever.fault_id,
    ]


def test_heal_is_idempotent_and_overrides_schedule():
    tracker = FaultTracker()
    record = tracker.begin("partition", ("client", 2), 1.0, heal_at=5.0)
    tracker.heal(record, 4.0)
    tracker.heal(record, 9.0)  # second heal ignored
    assert record.healed_at == 4.0
    assert record.end == 4.0
    assert not record.active_at(4.5)


def test_active_during_window():
    tracker = FaultTracker()
    tracker.begin("partition", ("client", 0), 1.0, heal_at=2.0)
    tracker.begin("mds_crash", ("mds", "*"), 5.0)
    assert len(tracker.active_during(0.0, 1.5)) == 1
    assert len(tracker.active_during(2.0, 4.0)) == 0
    assert len(tracker.active_during(4.9, 5.1)) == 1  # point in window


def test_excusers_scope_and_grace():
    tracker = FaultTracker()
    net = tracker.begin("loss_burst", ("net", "*"), 1.0, heal_at=2.0)
    tracker.heal(net, 2.0)
    other = tracker.begin("partition", ("client", 4), 1.0, heal_at=9.0)
    # Cluster-wide violations see both; client-scoped only the match.
    assert len(tracker.excusers(CLUSTER_WIDE, 1.5, 1.6)) == 2
    assert tracker.excusers(("client", 4), 8.0, 8.5) == [other]
    assert tracker.excusers(("client", 5), 8.0, 8.5) == []
    # Grace extends excusal past the heal...
    assert tracker.excusers(("net", 0), 2.5, 3.0, grace=1.0) == [net]
    # ...but with grace=0 a fault healed exactly at the window start
    # does NOT excuse: a heal-convergence probe at t=heal is never
    # excused by the very fault it probes.
    assert tracker.excusers(("net", 0), 2.0, 3.0, grace=0.0) == []


def test_window_annotations_point_and_ranged():
    tracker = FaultTracker()
    tracker.begin("mds_crash", ("mds", "*"), 0.25)  # point -> window 2
    spanning = tracker.begin(
        "partition", ("client", 0), 0.11, heal_at=0.69
    )
    tracker.heal(spanning, 0.69)
    ann = tracker.window_annotations(0.1)
    assert ann[2] == {"mds_crash", "partition"}
    assert all("partition" in ann[k] for k in range(1, 7))
    assert 0 not in ann
    capped = tracker.window_annotations(0.1, cap_index=3)
    assert max(capped) == 3


def test_from_tracer_roundtrip():
    class FakeEvent:
        def __init__(self, name, time, cat="fault", **args):
            self.name = name
            self.time = time
            self.cat = cat
            self.args = args

    class FakeTracer:
        events = [
            FakeEvent("partition_start", 0.2, client=1, until=0.5),
            FakeEvent("mds_crash", 0.3),
            FakeEvent("commit_apply", 0.4, cat="rpc"),  # not a fault
            FakeEvent("shard_partition_end", 0.6, shard=2),
        ]

    tracker = FaultTracker.from_tracer(FakeTracer())
    kinds = [(r.kind, r.scope, r.point) for r in tracker.records]
    assert kinds == [
        ("partition_start", ("client", 1), False),
        ("mds_crash", ("mds", "*"), True),
        ("shard_partition_end", ("shard", 2), True),
    ]
    assert tracker.records[0].healed_at == 0.5
