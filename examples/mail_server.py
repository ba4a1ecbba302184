#!/usr/bin/env python
"""Mail-server scenario: varmail with fsync durability on Redbud.

Varmail is the adversarial case for delayed commit: every composed mail
is fsync'd, so the application *does* wait for the ordered write.  The
point the paper makes (and this example shows) is that delayed commit
still helps -- data writes from many threads merge, commits compound
into fewer RPCs -- while fsync keeps full durability: the example
crashes the cluster at the end and verifies that every fsync'd mail
survives consistently.

Run::

    python examples/mail_server.py
"""

from repro.analysis import Table
from repro.consistency import check_ordered_writes
from repro.fs import ClusterConfig, RedbudCluster
from repro.util import fmt_time
from repro.workloads import VarmailWorkload


def run(commit_mode: str, delegation: bool):
    config = ClusterConfig(
        num_clients=7, commit_mode=commit_mode, space_delegation=delegation
    )
    cluster = RedbudCluster(config, seed=13)
    result = cluster.run_workload(
        VarmailWorkload(seed_files_per_client=25), duration=3.0
    )
    return cluster, result


def main() -> None:
    table = Table(
        ["configuration", "flowlets/s", "fsync latency", "commit RPCs",
         "mean compound degree"],
        title="varmail (fsync-per-mail), 7 clients x 4 threads",
    )
    rows = [
        ("original Redbud", "synchronous", False),
        ("delayed + delegation", "delayed", True),
    ]
    last_cluster = None
    for name, mode, delegation in rows:
        cluster, result = run(mode, delegation)
        last_cluster = cluster
        fsync = result.latency("fsync")
        table.add_row(
            name,
            result.metrics.count("create") / result.duration,
            fmt_time(fsync.mean) if fsync.count else "inline",
            result.extras.get("commit_rpcs", "per-op"),
            f"{result.extras.get('mean_compound_degree', 1.0):.2f}",
        )
    table.print()

    # Durability check: crash the delayed-commit cluster right now and
    # verify the ordered-writes invariant holds.
    for client in last_cluster.clients:
        client.crash()
    mds = last_cluster.metadata.shard(0)
    report = check_ordered_writes(
        mds.namespace, last_cluster.array.stable, mds.space
    )
    print(f"\nPost-crash check: {report.summary()}")
    assert report.consistent


if __name__ == "__main__":
    main()
