"""Shared test fixtures and factories: a miniature Redbud stack."""

import pytest

from repro.client.client import RedbudClient
from repro.core.delegation import DoubleSpacePool
from repro.mds.allocation import SpaceManager
from repro.mds.namespace import Namespace
from repro.mds.server import MdsParameters, MetadataServer
from repro.mds.sharding import ShardedMetadataService
from repro.net.link import Link
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.storage.blockdev import BlockDevice
from repro.storage.blktrace import BlkTrace
from repro.storage.disk import DiskArray, DiskParameters


class MiniCluster:
    """A hand-assembled small cluster for unit/integration tests.

    One MDS; ``metadata`` wraps it as the one-shard service
    :class:`~repro.fs.redbud.RedbudCluster` builds, so ``crash_cluster``
    takes this cluster too.
    """

    def __init__(
        self,
        env,
        num_clients=1,
        commit_mode="synchronous",
        delegation_chunk=None,
        mds_params=None,
        disk_params=None,
        volume_size=1 << 30,
        seed=7,
        obs=None,
        **client_kw,
    ):
        self.env = env
        self.obs = obs
        if obs is not None:
            obs.attach(env)
        rng = StreamRNG(seed)
        self.trace = BlkTrace()
        self.array = DiskArray(
            env,
            disk_params or DiskParameters(volume_size=volume_size),
            rng.stream("disk"),
            trace=self.trace,
        )
        self.port = RpcServerPort(env)
        self.namespace = Namespace()
        self.space = SpaceManager(volume_size=volume_size, num_groups=4)
        self.witnesses = None
        self.clients = []
        for cid in range(num_clients):
            up = Link(env, name=f"up-{cid}")
            down = Link(env, name=f"down-{cid}")
            rpc = RpcClient(env, cid, RpcTransport(env, up, down, self.port))
            client = RedbudClient(
                env,
                cid,
                rpc,
                BlockDevice(env, cid, self.array),
                commit_mode=commit_mode,
                delegation_pools=(
                    {0: DoubleSpacePool(chunk_size=delegation_chunk)}
                    if delegation_chunk
                    else None
                ),
                **client_kw,
            )
            self.clients.append(client)
        self.mds = MetadataServer(
            env,
            mds_params or MdsParameters(num_daemons=4),
            self.namespace,
            self.space,
            self.port,
        )
        self.metadata = ShardedMetadataService([self.mds])

    @property
    def client(self):
        return self.clients[0]

    def run_ops(self, *generators, settle=1.0):
        """Run generator ops to completion; returns their results.

        Background daemons (thread-pool controller, compound controller)
        tick forever, so we run until every op process finishes, then let
        the cluster settle for ``settle`` virtual seconds so in-flight
        background commits can land.
        """
        results = [None] * len(generators)

        def runner(env, idx, gen):
            results[idx] = yield from gen
            return None

        processes = [
            self.env.process(runner(self.env, i, gen))
            for i, gen in enumerate(generators)
        ]
        self.env.run(until=self.env.all_of(processes))
        if settle:
            self.env.run(until=self.env.now + settle)
        return results


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def sync_cluster(env):
    return MiniCluster(env, commit_mode="synchronous")


@pytest.fixture
def delayed_cluster(env):
    return MiniCluster(env, commit_mode="delayed")


@pytest.fixture
def delegated_cluster(env):
    return MiniCluster(
        env, commit_mode="delayed", delegation_chunk=16 * 1024 * 1024
    )
