"""PVFS2 baseline (Fig. 3).

Architectural contrasts with Redbud that the model captures:

- **no client cache**: PVFS2 famously does not cache file data on
  clients, so every read crosses the network and every write is shipped
  immediately;
- **write-through data servers**: a write RPC completes only after the
  data server has put the data on its local disk -- no delayed anything,
  which is why PVFS2 trails Redbud on small-file updates;
- **striping for parallel I/O**: files are striped across all data
  servers in ``stripe_size`` units and a large write fans out to every
  server in parallel.  Combined with one disk *per server* (aggregate
  bandwidth ~N disks versus Redbud's single shared array), this is the
  MPI-IO strength that lets PVFS2 win the NPB experiment, matching the
  paper ("PVFS2 has been optimized for MPI-IO").
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.client.filesystem import FileSystemAPI
from repro.fs.base import BaseCluster
from repro.fs.config import ClusterConfig
from repro.net.link import Link
from repro.net.messages import RpcMessage
from repro.net.rpc import RpcClient, RpcServerPort, RpcTransport
from repro.sim import Environment
from repro.storage.blockdev import BlockDevice
from repro.storage.cache import PageCache
from repro.storage.disk import DiskArray

#: The stripe unit the cluster's clients use: 1 MiB.
STRIPE_SIZE = 1024 * 1024


@dataclass
class PvfsCreate:
    name: str


@dataclass
class PvfsIo:
    file_id: int
    offset: int
    length: int
    #: Place this chunk at an aged-namespace (random) position.
    scattered: bool = False


@dataclass
class PvfsGetattr:
    file_id: int


@dataclass
class PvfsUnlink:
    file_id: int


class Pvfs2DataServer:
    """One data server: NIC plus a slice of the shared FC array.

    The paper's testbed gives every server direct FC access to the same
    disk array; a PVFS2 data server therefore stores its objects in its
    own partition of that array (write-through -- PVFS2 has no delayed
    anything).  The user-space request path costs more CPU per message
    than the in-kernel Redbud service.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        link_params,
        array: DiskArray,
        partition: _t.Tuple[int, int],
        rng,
        num_daemons: int = 8,
        svc_message: float = 80e-6,
    ) -> None:
        self.env = env
        self.server_id = server_id
        self.rng = rng
        self.svc_message = svc_message
        self.port = RpcServerPort(env)
        self.uplink = Link(
            env,
            bandwidth=link_params.bandwidth,
            propagation=link_params.propagation,
            per_message_overhead=link_params.per_message_overhead,
            name=f"pvfs-rx-{server_id}",
        )
        self.downlink = Link(
            env,
            bandwidth=link_params.bandwidth,
            propagation=link_params.propagation,
            per_message_overhead=link_params.per_message_overhead,
            name=f"pvfs-tx-{server_id}",
        )
        self.array = array
        self.blockdev = BlockDevice(env, server_id, array)
        self.cache = PageCache(capacity=1 * 1024**3)  # server buffer cache
        #: (file_id, chunk_offset) -> volume offset of the stored chunk.
        self._chunks: _t.Dict[_t.Tuple[int, int], _t.Tuple[int, int]] = {}
        self._partition_start, self._partition_size = partition
        # The data partition proper starts after an inode/journal region
        # (the backing local file system's metadata area).
        self._inode_region = self._partition_start
        self._inode_region_size = max(4096, self._partition_size // 64)
        self._cursor = self._partition_start + self._inode_region_size
        self.requests_processed = 0
        for i in range(num_daemons):
            env.process(self._daemon(), name=f"pvfsd-{server_id}-{i}")

    def _daemon(self) -> _t.Generator:
        while True:
            (message,) = yield self.port.next_group()
            yield self.env.timeout(self.svc_message)
            payload = message.payload
            if isinstance(payload, PvfsIo) and message.kind == "write":
                result = yield from self._write(payload)
            elif isinstance(payload, PvfsIo) and message.kind == "read":
                result = yield from self._read(payload, message)
            else:
                raise TypeError(f"unexpected payload {payload!r}")
            self.requests_processed += 1
            self.port.reply(message, result)

    def _write(self, p: PvfsIo) -> _t.Generator:
        end = self._partition_start + self._partition_size
        if p.scattered:
            # Aged placement in the upper half of the partition.
            half = self._partition_size // 2
            volume = (
                self._partition_start
                + half
                + self.rng.integers(0, max(1, half - p.length))
            )
        else:
            volume = self._cursor
            if volume + p.length > self._partition_start + (
                self._partition_size // 2
            ):
                self._cursor = (
                    self._partition_start + self._inode_region_size
                )
                volume = self._cursor
            self._cursor = volume + p.length
        self._chunks[(p.file_id, p.offset)] = (volume, p.length)
        # Write-through service: the client is blocked on this RPC.
        events = [
            self.blockdev.submit_write(volume, p.length, p.file_id, sync=True)
        ]
        if p.offset == 0:
            # The backing local file system (2012-era ext3) synchronously
            # updates the object's inode/journal in its metadata region --
            # a scattered small write per stored object.  This is the
            # documented small-file weakness of PVFS2 data servers.
            inode_slot = self._inode_region + (
                (p.file_id * 4096) % self._inode_region_size
            )
            events.append(
                self.blockdev.submit_write(
                    inode_slot, 4096, p.file_id, sync=True
                )
            )
        # Write-through: the reply waits for the disk.
        for event in events:
            yield event
        self.cache.write(p.file_id, p.offset, p.length)
        self.cache.mark_clean(p.file_id, p.offset, p.length)
        return True

    def _read(self, p: PvfsIo, message: RpcMessage) -> _t.Generator:
        if not self.cache.read_hit(p.file_id, p.offset, p.length):
            stored = self._chunks.get((p.file_id, p.offset))
            if stored is not None:
                volume, length = stored
                yield self.blockdev.submit_read(volume, length, p.file_id)
                self.cache.fill(p.file_id, p.offset, p.length)
        message.reply_data_bytes = p.length
        return True


class Pvfs2MetaServer:
    """A lightweight PVFS2 metadata service."""

    def __init__(
        self,
        env: Environment,
        link_params,
        num_daemons: int = 4,
        svc_message: float = 60e-6,
    ) -> None:
        self.env = env
        self.svc_message = svc_message
        self.port = RpcServerPort(env)
        self.uplink = Link(env, bandwidth=link_params.bandwidth,
                           propagation=link_params.propagation,
                           name="pvfs-meta-rx")
        self.downlink = Link(env, bandwidth=link_params.bandwidth,
                             propagation=link_params.propagation,
                             name="pvfs-meta-tx")
        self._by_name: _t.Dict[str, int] = {}
        self._sizes: _t.Dict[int, int] = {}
        self._next_id = 1
        for i in range(num_daemons):
            env.process(self._daemon(), name=f"pvfs-meta-{i}")

    def _daemon(self) -> _t.Generator:
        while True:
            (message,) = yield self.port.next_group()
            yield self.env.timeout(self.svc_message)
            payload = message.payload
            if isinstance(payload, PvfsCreate):
                if payload.name in self._by_name:
                    result = self._by_name[payload.name]
                else:
                    result = self._next_id
                    self._by_name[payload.name] = result
                    self._next_id += 1
            elif isinstance(payload, PvfsGetattr):
                result = self._sizes.get(payload.file_id, 0)
            elif isinstance(payload, PvfsUnlink):
                result = True
            else:
                raise TypeError(f"unexpected payload {payload!r}")
            self.port.reply(message, result)


class Pvfs2Client(FileSystemAPI):
    """Striping client: no cache, parallel chunk fan-out."""

    supports_collective_io = True  # ROMIO collective buffering

    def __init__(
        self,
        env: Environment,
        client_id: int,
        meta_rpc: RpcClient,
        data_rpcs: _t.List[RpcClient],
        stripe_size: int = 64 * 1024,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.meta_rpc = meta_rpc
        self.data_rpcs = data_rpcs
        self.stripe_size = stripe_size
        # PVFS2 has no client data cache; expose an always-miss stand-in
        # so workload setup code (cache.drop_volatile) works unchanged.
        self.cache = PageCache(capacity=4096)

    def _chunks_of(
        self, file_id: int, offset: int, length: int
    ) -> _t.Iterator[_t.Tuple[int, int, int]]:
        """Yield (server_index, chunk_offset, chunk_length)."""
        n = len(self.data_rpcs)
        cursor = offset
        end = offset + length
        while cursor < end:
            chunk_index = cursor // self.stripe_size
            chunk_start = chunk_index * self.stripe_size
            chunk_len = min(end, chunk_start + self.stripe_size) - cursor
            server = (file_id + chunk_index) % n
            yield server, cursor, chunk_len
            cursor += chunk_len

    def create(self, name: str) -> _t.Generator:
        # PVFS2 file creation is a multi-step metadata protocol (handle
        # allocation, setattr, datafile handles, directory entry -- see
        # Devulapalli & Wyckoff, IPDPS'07): several sequential RPCs.
        file_id = yield self.meta_rpc.call("create", PvfsCreate(name=name))
        yield self.meta_rpc.call("getattr", PvfsGetattr(file_id=file_id))
        yield self.meta_rpc.call("getattr", PvfsGetattr(file_id=file_id))
        return file_id

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        scattered: bool = False,
    ) -> _t.Generator:
        events = [
            self.data_rpcs[server].call(
                "write",
                PvfsIo(
                    file_id=file_id,
                    offset=c_off,
                    length=c_len,
                    scattered=scattered,
                ),
                data_bytes=c_len,
            )
            for server, c_off, c_len in self._chunks_of(
                file_id, offset, length
            )
        ]
        # Parallel fan-out: wait for every stripe chunk.
        yield self.env.all_of(events)
        return None

    def read(self, file_id: int, offset: int, length: int) -> _t.Generator:
        events = [
            self.data_rpcs[server].call(
                "read",
                PvfsIo(file_id=file_id, offset=c_off, length=c_len),
                reply_data_bytes=c_len,
            )
            for server, c_off, c_len in self._chunks_of(
                file_id, offset, length
            )
        ]
        yield self.env.all_of(events)
        return True

    def fsync(self, file_id: int) -> _t.Generator:
        return None  # write-through: nothing volatile to flush
        yield  # pragma: no cover

    def close(self, file_id: int, sync: bool = False) -> _t.Generator:
        return None
        yield  # pragma: no cover

    def unlink(self, file_id: int) -> _t.Generator:
        yield self.meta_rpc.call("unlink", PvfsUnlink(file_id=file_id))
        return None

    def stat(self, file_id: int) -> _t.Generator:
        meta = yield self.meta_rpc.call(
            "getattr", PvfsGetattr(file_id=file_id)
        )
        return meta


class Pvfs2Cluster(BaseCluster):
    """N clients, N data servers, one metadata server."""

    system_name = "pvfs2"

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 0,
        obs: _t.Optional[_t.Any] = None,
    ) -> None:
        super().__init__(Environment(), seed=seed, obs=obs)
        self.config = config
        env = self.env
        n_servers = config.client_nodes  # one data server per client node

        self.meta = Pvfs2MetaServer(env, config.link)
        # All data servers share the testbed's FC disk array, each owning
        # a partition of its address space.
        self.array = DiskArray(
            env, config.disk, self.root_rng.stream("pvfs-disk")
        )
        part_size = config.disk.volume_size // n_servers
        self.servers = [
            Pvfs2DataServer(
                env,
                sid,
                config.link,
                self.array,
                partition=(sid * part_size, part_size),
                rng=self.root_rng.stream("pvfs-alloc", sid),
            )
            for sid in range(n_servers)
        ]
        self.clients = []
        for cid in range(config.client_nodes):
            meta_rpc = RpcClient(
                env,
                cid,
                RpcTransport(
                    env, self.meta.uplink, self.meta.downlink, self.meta.port
                ),
            )
            data_rpcs = [
                RpcClient(
                    env,
                    cid,
                    RpcTransport(env, s.uplink, s.downlink, s.port),
                )
                for s in self.servers
            ]
            self.clients.append(
                Pvfs2Client(
                    env, cid, meta_rpc, data_rpcs, stripe_size=STRIPE_SIZE
                )
            )

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    def client_fs(self, index: int) -> Pvfs2Client:
        return self.clients[index]

    def apply_cache_recommendation(self, capacity: int) -> None:
        # PVFS2 clients cache nothing; the data servers split the pooled
        # memory the other systems' clients would have had.
        per_server = max(1, capacity * self.num_clients // len(self.servers))
        for server in self.servers:
            server.cache.capacity = per_server

    def collect_extras(self) -> _t.Dict[str, _t.Any]:
        return {
            "data_server_requests": sum(
                s.requests_processed for s in self.servers
            ),
            "array_utilization": self.array.utilization,
        }
