"""End-to-end: live 2-shard cluster over real sockets, audited on disk.

Boots ``repro serve`` as a subprocess (one child process per shard),
drives the unmodified delayed-commit client stack against it with
:func:`repro.rt.smoke.run_smoke`, and asserts the simulator's oracle
panel passes on the shards' persisted state.  Also unit-tests
:func:`repro.rt.smoke.run_oracles` against fabricated bad dumps so a
green smoke run means the checks can actually fail.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.consistency.panel import PANEL_KINDS
from repro.rt.server import ShardConfig, serve_shard
from repro.rt.smoke import SmokeConfig, run_oracles, run_smoke
from repro.rt.transport import ctl_request

VOLUME_SIZE = 8 * 1024 * 1024


def _start_cluster(data_dir, shards=2, drop_every=5):
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "src"
    )
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--shards",
            str(shards),
            "--data-dir",
            data_dir,
            "--volume-size",
            str(VOLUME_SIZE),
            "--drop-every",
            str(drop_every),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    cluster_file = os.path.join(data_dir, "cluster.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise AssertionError(
                f"repro serve exited early ({proc.returncode}):\n{out}"
            )
        if os.path.exists(cluster_file):
            with open(cluster_file) as handle:
                return proc, json.load(handle)
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    raise AssertionError("cluster.json never appeared")


def test_live_two_shard_cluster_passes_oracles(tmp_path):
    data_dir = str(tmp_path)
    proc, cluster = _start_cluster(data_dir)
    try:
        assert cluster["shards"] == 2
        assert len(cluster["addresses"]) == 2
        config = SmokeConfig(
            addresses=[tuple(a) for a in cluster["addresses"]],
            data_dir=data_dir,
            shards=cluster["shards"],
            volume_size=cluster["volume_size"],
            clients=2,
            files_per_client=3,
            file_size=8 * 1024,
            timeout=60.0,
        )
        report = asyncio.run(run_smoke(config))
    finally:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        with proc.stdout:
            serve_log = proc.stdout.read()

    # A handler that dies is only logged by asyncio; the shards' stderr
    # lands in this pipe.
    assert "Traceback" not in serve_log, serve_log
    assert report["ok"], json.dumps(report["oracles"], indent=2)
    # The whole panel ran, history included, on every shard.
    assert set(report["oracles"]) == set(PANEL_KINDS) | {"expectations"}
    replayed = [s for s in report["summaries"] if s.startswith("history:")]
    assert len(replayed) == 2
    assert all(" 0 ops replayed" not in s for s in replayed), replayed
    # 2 clients x 3 files, every 4th unlinked (index 3) -- none here.
    assert report["files_persisted"] == 6
    assert report["files_expected"] == 6
    assert report["committed_bytes"] > 0
    # The --drop-every faults forced real retransmissions through the
    # client retry machinery, and exactly-once still held.
    total_dropped = sum(
        s.get("requests_dropped", 0) for s in report["shard_stats"]
    )
    total_retries = sum(
        c["rpc_retries"] for c in report["client_stats"]
    )
    assert total_dropped > 0
    assert total_retries >= total_dropped
    # Both ends count frames where they reach the socket: every request
    # was written, and no write carried less than one frame.
    wire = report["transport_stats"]
    assert wire["frames_sent"] == wire["requests_sent"]
    for end in [wire] + [s["wire"] for s in report["shard_stats"]]:
        assert 0 < end["socket_writes"] <= end["frames_sent"]
    # ... and all three say how many kernel events a loop tick served.
    for kernel in [report["kernel_stats"]] + [
        s["kernel"] for s in report["shard_stats"]
    ]:
        assert 0 < kernel["drains"] <= kernel["events"]
    # Each shard read requests off its sockets and served them in groups
    # of one or more.
    for shard in report["shard_stats"]:
        stats = shard["stats"]
        assert shard["wire"]["socket_reads"] > 0
        assert 0 < stats["groups_served"] <= stats["requests_processed"]
        print(
            f"shard {shard['shard']}: "
            f"{stats['requests_processed'] / stats['groups_served']:.2f}"
            " requests per group"
        )
    # serve exited cleanly after the ctl shutdown.
    assert proc.returncode == 0
    # Both shards persisted dumps.
    for shard in range(2):
        assert os.path.exists(
            os.path.join(data_dir, f"shard-{shard}.json")
        )


def test_failed_smoke_still_shuts_the_cluster_down(tmp_path):
    data_dir = str(tmp_path)
    proc, cluster = _start_cluster(data_dir, drop_every=0)
    try:
        config = SmokeConfig(
            addresses=[tuple(a) for a in cluster["addresses"]],
            data_dir=data_dir,
            shards=cluster["shards"],
            volume_size=cluster["volume_size"],
            timeout=0.01,
        )
        with pytest.raises(asyncio.TimeoutError):
            asyncio.run(run_smoke(config))
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            # SIGINT lets serve terminate its shard processes.
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)
        proc.stdout.close()
    for shard in range(2):
        assert os.path.exists(
            os.path.join(data_dir, f"shard-{shard}.json")
        )


def _closed_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_refused_connect_still_shuts_the_live_shards_down(tmp_path):
    """Shard 1 refuses the smoke client's connection: shard 0, already
    connected, is still shut down (and dumps), and the connection smoke
    had opened to it leaves no reply reader behind."""
    config = ShardConfig(
        shard=0, shards=2, data_dir=str(tmp_path), volume_size=VOLUME_SIZE
    )

    async def scenario():
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        shard = asyncio.ensure_future(
            serve_shard(config, ready=ready.set_result)
        )
        port = await ready
        smoke = SmokeConfig(
            addresses=[("127.0.0.1", port), ("127.0.0.1", _closed_port())],
            data_dir=str(tmp_path),
            shards=2,
            volume_size=VOLUME_SIZE,
        )
        with pytest.raises(ConnectionRefusedError):
            await run_smoke(smoke)
        dumped = os.path.exists(config.dump_path)
        readers = [
            task
            for task in asyncio.all_tasks()
            if not task.done()
            and task.get_coro().__name__ == "_read_replies"
        ]
        if not shard.done():  # stop a stranded shard so the test ends
            await ctl_request("127.0.0.1", port, {"op": "shutdown"})
        await asyncio.wait_for(shard, 10)
        return dumped, readers

    dumped, readers = asyncio.run(scenario())
    assert dumped, "the connected shard was never shut down"
    assert readers == []


def _refuses_connections(address):
    try:
        socket.create_connection(tuple(address), timeout=1).close()
    except ConnectionRefusedError:
        return True
    return False


def test_sigterm_takes_the_shards_down(tmp_path):
    proc, cluster = _start_cluster(str(tmp_path), drop_every=0)
    try:
        assert not any(map(_refuses_connections, cluster["addresses"]))
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 5
        for address in cluster["addresses"]:
            while not _refuses_connections(address):
                assert time.monotonic() < deadline, (
                    f"shard at {address} outlived SIGTERM to serve"
                )
                time.sleep(0.05)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


def _config(tmp_path):
    return SmokeConfig(
        addresses=[("127.0.0.1", 0), ("127.0.0.1", 0)],
        data_dir=str(tmp_path),
        shards=2,
        volume_size=VOLUME_SIZE,
    )


def _oplog(files):
    """The journal that creates ``files`` in order and commits them."""
    oplog = []
    for entry in files:
        oplog.append(["create", entry["file_id"], entry["name"], 0.0])
        triples = [[fo, ln, vo] for fo, ln, _dev, vo, _st in entry["extents"]]
        if triples:
            oplog.append(["commit", entry["file_id"], triples, 0.0])
    return oplog


def _dump(shard, shards=2, files=(), counts=()):
    slice_size = VOLUME_SIZE // shards
    return {
        "shard": shard,
        "shards": shards,
        "volume_size": VOLUME_SIZE,
        "slice_size": slice_size,
        "base_offset": shard * slice_size,
        "num_groups": 4,
        "strategy": "locality",
        "files": list(files),
        "commit_apply_counts": list(counts),
        "oplog": _oplog(files),
        "uncommitted": {},
        "stats": {},
    }


def _file(file_id, extents, size=None, name=None):
    return {
        "file_id": file_id,
        "name": name or f"f{file_id}",
        "ctime": 0.0,
        "mtime": 0.0,
        "size": size if size is not None else sum(e[1] for e in extents),
        "extents": extents,
    }


def _write_volume(tmp_path, spans):
    path = os.path.join(str(tmp_path), "volume.img")
    with open(path, "wb") as handle:
        handle.truncate(VOLUME_SIZE)
        for offset, length, byte in spans:
            handle.seek(offset)
            handle.write(bytes([byte]) * length)
    return path


def test_oracles_flag_double_applied_commit(tmp_path):
    _write_volume(tmp_path, [])
    report = run_oracles(
        [_dump(0, counts=[[1, 7, 2]]), _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {},
        _config(tmp_path),
    )
    assert not report["ok"]
    assert "applied 2 times" in report["oracles"]["double-apply"][0]


def test_oracles_flag_overlapping_extents(tmp_path):
    from repro.rt.disk import pattern_byte

    # Two files on shard 0 (ids 1 and 3) claiming the same volume range.
    ext = [0, 4096, 0, 0, "committed"]
    _write_volume(
        tmp_path,
        [(0, 4096, pattern_byte(1)), (0, 4096, pattern_byte(3))],
    )
    report = run_oracles(
        [
            _dump(0, files=[_file(1, [ext]), _file(3, [list(ext)])]),
            _dump(1),
        ],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 4096, 3: 4096},
        _config(tmp_path),
    )
    assert not report["ok"]
    assert report["oracles"]["extent-overlap"]
    # The overlap also breaks the allocator rebuild.
    assert any("rebuild failed" in v for v in report["oracles"]["fsck"])


def test_oracles_flag_foreign_shard_file(tmp_path):
    _write_volume(tmp_path, [])
    # file_id 2 belongs to shard 1's residue class, persisted by shard 0.
    report = run_oracles(
        [_dump(0, files=[_file(2, [])]), _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {2: 0},
        _config(tmp_path),
    )
    assert not report["ok"]
    assert any(
        "file 2 " in v and "owner is shard 1" in v
        for v in report["oracles"]["shard-disjointness"]
    )


def test_oracles_flag_extent_escaping_slice(tmp_path):
    from repro.rt.disk import pattern_byte

    slice_size = VOLUME_SIZE // 2
    # Shard 0 file with an extent inside shard 1's slice.
    ext = [0, 4096, 0, slice_size + 8192, "committed"]
    _write_volume(tmp_path, [(slice_size + 8192, 4096, pattern_byte(1))])
    report = run_oracles(
        [_dump(0, files=[_file(1, [ext])]), _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 4096},
        _config(tmp_path),
    )
    assert not report["ok"]
    assert any(
        "escapes" in v for v in report["oracles"]["shard-disjointness"]
    )


def test_oracles_flag_wrong_bytes_on_disk(tmp_path):
    from repro.rt.disk import pattern_byte

    ext = [0, 4096, 0, 0, "committed"]
    # Volume holds the wrong pattern byte for file 1.
    _write_volume(tmp_path, [(0, 4096, pattern_byte(1) ^ 0xFF)])
    report = run_oracles(
        [_dump(0, files=[_file(1, [ext])]), _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 4096},
        _config(tmp_path),
    )
    assert not report["ok"]
    assert report["oracles"]["dangling-metadata"]

    # One wrong byte anywhere in an extent, a read that comes up short,
    # or no volume file at all is enough -- and nothing else is flagged.
    good = pattern_byte(1)
    for wrong_at in (0, 2048, 4095, "short read", "no volume"):
        path = _write_volume(tmp_path, [(0, 4096, good)])
        if wrong_at == "short read":
            os.truncate(path, 4095)
        elif wrong_at == "no volume":
            os.remove(path)
        else:
            _write_volume(
                tmp_path, [(0, 4096, good), (wrong_at, 1, good ^ 1)]
            )
        report = run_oracles(
            [_dump(0, files=[_file(1, [ext])]), _dump(1)],
            path,
            {1: 4096},
            _config(tmp_path),
        )
        flagged = {k: len(v) for k, v in report["oracles"].items() if v}
        assert flagged == {"dangling-metadata": 1}, (wrong_at, flagged)


def test_oracles_flag_missing_and_size_mismatched_files(tmp_path):
    from repro.rt.disk import pattern_byte

    ext = [0, 4096, 0, 0, "committed"]
    _write_volume(tmp_path, [(0, 4096, pattern_byte(1))])
    report = run_oracles(
        [_dump(0, files=[_file(1, [ext], size=4096)]), _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 8192, 2: 4096},
        _config(tmp_path),
    )
    assert not report["ok"]
    issues = report["oracles"]["expectations"]
    assert any("persisted size" in v for v in issues)
    assert any("absent" in v for v in issues)


def test_oracles_pass_on_consistent_state(tmp_path):
    from repro.rt.disk import pattern_byte

    slice_size = VOLUME_SIZE // 2
    a = [0, 4096, 0, 0, "committed"]
    b = [0, 4096, 0, slice_size, "committed"]
    _write_volume(
        tmp_path,
        [(0, 4096, pattern_byte(1)), (slice_size, 4096, pattern_byte(2))],
    )
    report = run_oracles(
        [
            _dump(0, files=[_file(1, [a])], counts=[[1, 1, 1]]),
            _dump(1, files=[_file(2, [b])], counts=[[1, 2, 1]]),
        ],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 4096, 2: 4096},
        _config(tmp_path),
    )
    assert report["ok"], json.dumps(report["oracles"], indent=2)
    assert report["violations"] == 0
    assert report["committed_bytes"] == 8192
    # Every kind is listed, flagged or not.
    assert list(report["oracles"]) == list(PANEL_KINDS) + ["expectations"]


def test_oracles_flag_create_missing_from_history(tmp_path):
    from repro.rt.disk import pattern_byte

    a = [0, 4096, 0, 0, "committed"]
    _write_volume(tmp_path, [(0, 4096, pattern_byte(1))])
    dump = _dump(0, files=[_file(1, [a])], counts=[[1, 1, 1]])
    # The journal lost file 1's create but kept its commit.
    dump["oplog"] = [e for e in dump["oplog"] if e[0] != "create"]
    report = run_oracles(
        [dump, _dump(1)],
        os.path.join(str(tmp_path), "volume.img"),
        {1: 4096},
        _config(tmp_path),
    )
    flagged = {k: len(v) for k, v in report["oracles"].items() if v}
    assert set(flagged) == {"history-divergence"}, flagged
    assert any(
        "file 1" in v and "[shard 0]" in v
        for v in report["oracles"]["history-divergence"]
    )
