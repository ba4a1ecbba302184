"""Figure 6: commit-thread count tracking the commit-queue length.

The paper traces both series over each run: "the number of commit
threads adaptively changes according to the commit queue length" --
varmail hovers at 1-5 threads with spikes to the maximum, fileserver and
xcdn pin the pool at the maximum, and NPB never needs more than one.

One cell per workload on the delayed-commit configuration; the report
prints each client-0 series (bucketed) plus the summary statistics, and
asserts the per-workload claims.
"""

import pytest

from benchmarks.common import ResultBoard, run_once
from repro.analysis import Table, dual_series, summarize_pool_samples
from repro.analysis.timeseries import TimeSeries
from repro.fs import ClusterConfig, RedbudCluster
from repro.workloads import PAPER_WORKLOADS

#: The figure labels 32 KiB xcdn ``xcdn``.
WORKLOADS = {
    label: PAPER_WORKLOADS[{"xcdn": "xcdn-32K"}.get(label, label)]
    for label in ("varmail", "fileserver", "webproxy", "xcdn", "npb-bt")
}
MAX_THREADS = 9
DURATION = 3.0

_board = ResultBoard()


@pytest.fixture(scope="module")
def board():
    return _board


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
def test_fig6_cell(benchmark, board, workload_name):
    def run():
        config = ClusterConfig.space_delegation_config(num_clients=7)
        cluster = RedbudCluster(config, seed=29)
        cluster.run_workload(
            WORKLOADS[workload_name](), duration=DURATION, warmup=0.3
        )
        return [client.thread_pool.samples for client in cluster.clients]

    samples_per_client = run_once(benchmark, run)
    board.put(workload_name, "samples", samples_per_client)


def test_fig6_report_and_shape(benchmark, board):
    run_once(benchmark, lambda: None)  # keep this report under --benchmark-only
    table = Table(
        ["workload", "mean threads", "max threads", "mean queue",
         "max queue", "time at max", "thread/queue corr"],
        title="Fig. 6 -- commit threads vs commit queue length (client 0)",
    )
    summaries = {}
    for name in WORKLOADS:
        samples = board.get(name, "samples")[0]
        summary = summarize_pool_samples(samples, MAX_THREADS)
        summaries[name] = summary
        table.add_row(
            name,
            summary.mean_threads,
            summary.max_threads,
            summary.mean_queue,
            summary.max_queue,
            f"{summary.fraction_at_max_threads:.0%}",
            summary.thread_queue_correlation,
        )
    table.print()

    # Render two panels the way the paper plots them: thread count (left
    # scale) against commit queue length (right scale) over time.
    for name in ("varmail", "xcdn"):
        samples = board.get(name, "samples")[0]
        print()
        print(
            dual_series(
                [s[0] for s in samples],
                [s[1] for s in samples],
                [s[2] for s in samples],
                a_label="commit threads",
                b_label="queue length",
                title=f"Fig. 6 panel -- {name} (client 0)",
                width=68,
                height=10,
            )
        )

    # Heavy-update workloads drive the pool well above one thread and
    # the thread count tracks the queue (positive correlation).
    for name in ("xcdn", "fileserver", "webproxy", "varmail"):
        s = summaries[name]
        assert s.max_threads > 1, f"{name} never grew its pool"
        assert s.thread_queue_correlation > 0.25, (
            f"{name}: threads do not track queue "
            f"(corr={s.thread_queue_correlation:.2f})"
        )

    # The bulk-update personalities reach the pool maximum...
    assert summaries["xcdn"].max_threads == MAX_THREADS
    assert summaries["fileserver"].max_threads >= MAX_THREADS - 2

    # ...while NPB, with its rare large writes, stays at a single
    # commit thread essentially always ("the commit thread number keeps
    # to only one in the NPB experiment").
    npb = summaries["npb-bt"]
    assert npb.mean_threads < 1.5
    assert npb.max_threads <= 2
