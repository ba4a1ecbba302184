"""Block-trace CSV export/import.

The Fig. 5 bench exports each run's trace so the panels can be
re-plotted offline; this module owns the format so traces round-trip
losslessly (and external blktrace-like data can be imported for the
same analyses).

Format: a header line followed by one dispatch per line::

    time,op,start,length,seek_distance,client,queued
"""

from __future__ import annotations

from repro.storage.blktrace import BlkTrace, TraceRecord

HEADER = "time,op,start,length,seek_distance,client,queued"


def dump_trace(trace: BlkTrace, path: str) -> int:
    """Write ``trace`` to ``path``; returns the record count."""
    with open(path, "w") as fh:
        fh.write(HEADER + "\n")
        for r in trace.records:
            fh.write(
                f"{r.time!r},{r.op},{r.start},{r.length},"
                f"{r.seek_distance},{r.client_id},{r.queued}\n"
            )
    return len(trace.records)


def load_trace(path: str) -> BlkTrace:
    """Read a trace written by :func:`dump_trace`."""
    trace = BlkTrace()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(
                f"unrecognised trace header {header!r} in {path}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
            trace.records.append(
                TraceRecord(
                    time=float(parts[0]),
                    op=parts[1],
                    start=int(parts[2]),
                    length=int(parts[3]),
                    seek_distance=int(parts[4]),
                    client_id=int(parts[5]),
                    queued=int(parts[6]),
                )
            )
    return trace

