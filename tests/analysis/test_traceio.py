"""Round-trip tests for trace CSV export/import."""

import pytest

from repro.analysis.traceio import dump_trace, load_trace
from repro.storage.blktrace import BlkTrace


def make_trace(n=10):
    trace = BlkTrace()
    for i in range(n):
        trace.record(
            time=i * 0.001,
            op="write" if i % 2 else "read",
            start=i * 4096,
            length=4096,
            seek_distance=0 if i % 3 else 123456,
            client_id=i % 4,
            queued=1 + (i % 2),
        )
    return trace


def test_round_trip(tmp_path):
    trace = make_trace(25)
    path = str(tmp_path / "t.csv")
    assert dump_trace(trace, path) == 25
    loaded = load_trace(path)
    assert loaded.records == trace.records


def test_round_trip_preserves_analysis(tmp_path):
    trace = make_trace(40)
    path = str(tmp_path / "t.csv")
    dump_trace(trace, path)
    a = trace.analyze()
    b = load_trace(path).analyze()
    assert a == b


def test_empty_trace(tmp_path):
    path = str(tmp_path / "empty.csv")
    assert dump_trace(BlkTrace(), path) == 0
    assert load_trace(path).records == []


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,write,0,1,0,0,1\n")
    with pytest.raises(ValueError):
        load_trace(str(path))


def test_malformed_row_rejected(tmp_path):
    from repro.analysis.traceio import HEADER

    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "\n1,write,0\n")
    with pytest.raises(ValueError):
        load_trace(str(path))


def test_float_times_exact(tmp_path):
    """repr-based dump keeps full float precision."""
    trace = BlkTrace()
    trace.record(
        time=0.1234567890123456,
        op="write",
        start=1,
        length=2,
        seek_distance=3,
        client_id=4,
        queued=5,
    )
    path = str(tmp_path / "t.csv")
    dump_trace(trace, path)
    assert load_trace(path).records[0].time == 0.1234567890123456
