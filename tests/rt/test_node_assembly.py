"""The live side of the one Redbud node assembly.

``repro serve`` builds each shard's state with
:func:`repro.mds.sharding.build_shard_state` from the live values
:class:`repro.rt.server.ShardConfig` holds; ``repro smoke`` builds each
client with :func:`repro.fs.redbud.build_client`, the builders the
simulated cluster uses.  A shard process must not pay for the simulator:
importing :mod:`repro.rt.server` stays clear of the simulated layers.
"""

import asyncio
import json
import os
import subprocess
import sys

import repro.rt.server as server_mod
import repro.rt.smoke as smoke_mod
from repro.mds.server import MetadataServer
from repro.mds.sharding import build_shard_state
from repro.rt.server import ShardConfig, serve_shard
from repro.rt.smoke import SmokeConfig, run_smoke
from repro.rt.transport import ctl_request
from repro.util.rng import StreamRNG

VOLUME_SIZE = 8 * 1024 * 1024


def test_live_shard_state_has_four_locality_groups_per_slice():
    slice_size = VOLUME_SIZE // 2
    for shard in range(2):
        namespace, space = build_shard_state(
            shard,
            2,
            VOLUME_SIZE,
            ShardConfig.num_groups,
            ShardConfig.ag_strategy,
            StreamRNG(0),
        )
        base = shard * slice_size
        assert space.base_offset == base
        assert space.volume_size == slice_size
        assert [g.start for g in space.groups] == [
            base + i * slice_size // 4 for i in range(4)
        ]
        assert space.strategy == "locality"
        assert namespace.create("f", 0.0).file_id == shard + 1


async def _serve_in_process(configs, drive):
    """Run ``serve_shard`` for each config in this loop, then ``drive``
    with their addresses; returns the shards' dumps."""
    loop = asyncio.get_running_loop()
    ready = [loop.create_future() for _ in configs]
    tasks = [
        asyncio.ensure_future(serve_shard(config, ready=fut.set_result))
        for config, fut in zip(configs, ready)
    ]
    ports = [await fut for fut in ready]
    await drive([("127.0.0.1", port) for port in ports])
    return [await task for task in tasks]


def _recording(monkeypatch, module, name):
    built = []
    original = getattr(module, name)

    def record(*args, **kw):
        built.append(original(*args, **kw))
        return built[-1]

    monkeypatch.setattr(module, name, record)
    return built


def test_serve_shard_builds_the_live_server(tmp_path, monkeypatch):
    servers = _recording(monkeypatch, server_mod, "MetadataServer")
    config = ShardConfig(
        shard=1,
        shards=2,
        data_dir=str(tmp_path),
        volume_size=VOLUME_SIZE,
        num_daemons=3,
    )

    async def shut_down(addresses):
        ((host, port),) = addresses
        reply = await ctl_request(host, port, {"op": "shutdown"})
        assert reply["ok"], reply

    (dump,) = asyncio.run(_serve_in_process([config], shut_down))
    (server,) = servers
    assert isinstance(server, MetadataServer)
    assert server.params.lease_duration is None
    assert server.gc is None
    assert server.params.num_daemons == 3
    assert server.params.shards == 2
    assert (dump["num_groups"], dump["strategy"]) == (4, "locality")
    slice_size = VOLUME_SIZE // 2
    assert (dump["base_offset"], dump["slice_size"]) == (slice_size, slice_size)
    assert [g.start for g in server.space.groups] == [
        slice_size + i * slice_size // 4 for i in range(4)
    ]


def test_smoke_clients_are_delayed_undelegated_and_numbered_from_one(
    tmp_path, monkeypatch
):
    clients = _recording(monkeypatch, smoke_mod, "build_client")
    data_dir = str(tmp_path)
    configs = [
        ShardConfig(
            shard=k, shards=2, data_dir=data_dir, volume_size=VOLUME_SIZE
        )
        for k in range(2)
    ]
    reports = []

    async def smoke(addresses):
        reports.append(
            await run_smoke(
                SmokeConfig(
                    addresses=addresses,
                    data_dir=data_dir,
                    shards=2,
                    volume_size=VOLUME_SIZE,
                    clients=3,
                    files_per_client=1,
                    file_size=4096,
                    timeout=60.0,
                )
            )
        )

    asyncio.run(_serve_in_process(configs, smoke))
    (report,) = reports
    assert report["ok"], json.dumps(report["oracles"], indent=2)
    assert [c.client_id for c in clients] == [1, 2, 3]
    for client in clients:
        assert client.commit_mode == "delayed"
        assert client.delegation_pools == {}
        assert client.compound.fixed_degree == 4
        retry = client.rpc.retry
        assert (
            retry.base_timeout, retry.max_timeout, retry.max_attempts
        ) == (0.5, 2.0, 30)
        assert client.num_shards == 2


def test_shard_process_imports_no_simulated_layer():
    probe = (
        "import sys, repro.rt.server; "
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    modules = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.split()
    assert "repro.rt.server" in modules
    heavy = ("fs", "sim", "storage", "consistency")
    loaded = [m for m in modules if m.split(".")[1:2] in [[h] for h in heavy]]
    assert loaded == [], loaded
