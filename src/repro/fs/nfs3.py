"""NFS3 baseline (Fig. 3).

Architectural contrasts with Redbud that the model captures (§V.C):

- **one server does everything**: all data *and* metadata flow over the
  server's single Ethernet NIC (a shared link pair), and all disk I/O
  goes through the server's own disk -- the central bottleneck for large
  files;
- **no distributed updates**: a write is one WRITE RPC; the server
  buffers it in memory and replies immediately (the unstable write of
  the NFSv3 protocol), so small-file writes are fast -- this is why NFS3
  beats original Redbud on the 32 KB xcdn test;
- **COMMIT on demand**: fsync sends a COMMIT; the server then flushes the
  file's dirty pages, allocating disk space with a simple sequential
  cursor -- a single writer, so its disk pattern is naturally mergeable;
- a periodic write-back daemon bounds server memory.
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
from repro.storage.disk import DiskArray, DiskParameters
from repro.util.intervals import IntervalSet

#: Server memory copy bandwidth (buffering a WRITE), bytes/second.
MEMORY_BANDWIDTH = 2e9


# -- NFS3 payloads -------------------------------------------------------------


@dataclass
class NfsCreate:
    name: str


@dataclass
class NfsWrite:
    file_id: int
    offset: int
    length: int
    #: Place this file's data at an aged-namespace (random) position.
    scattered: bool = False


@dataclass
class NfsCommit:
    file_id: int


@dataclass
class NfsRead:
    file_id: int
    offset: int
    length: int


@dataclass
class NfsGetattr:
    file_id: int


@dataclass
class NfsUnlink:
    file_id: int


@dataclass
class _NfsFile:
    file_id: int
    name: str
    size: int = 0


class Nfs3Server:
    """The central NFS server: namespace + buffer cache + local disk."""

    def __init__(
        self,
        env: Environment,
        disk: DiskParameters,
        port: RpcServerPort,
        rng,
        num_daemons: int = 8,
        svc_message: float = 60e-6,
        flush_interval: float = 0.25,
        dirty_limit: int = 256 * 1024 * 1024,
    ) -> None:
        self.env = env
        self.rng = rng
        #: Memory-pressure bound: past this many dirty bytes, WRITE
        #: handlers flush synchronously before replying (the NFS server
        #: forcing stable writes under pressure).
        self.dirty_limit = dirty_limit
        self.port = port
        self.svc_message = svc_message
        self.array = DiskArray(env, disk, rng)
        self.blockdev = BlockDevice(env, 0, self.array)
        self.cache = PageCache(capacity=None)  # big server buffer cache
        self._files: _t.Dict[int, _NfsFile] = {}
        self._by_name: _t.Dict[str, int] = {}
        self._extents: _t.Dict[int, _t.List[_t.Tuple[int, int, int]]] = {}
        self._dirty: _t.Dict[int, IntervalSet] = {}
        self._scattered_files: _t.Set[int] = set()
        self._next_id = 1
        # Reserve a journal region at the front of the volume; data
        # allocation bumps sequentially after it.
        self.volume_size = disk.volume_size
        self._journal_region = max(4096, self.volume_size // 256)
        self._journal_slot = 0
        self._cursor = self._journal_region
        self.requests_processed = 0
        for i in range(num_daemons):
            env.process(self._daemon(), name=f"nfsd-{i}")
        env.process(self._flusher(flush_interval), name="nfs-flusher")

    # -- request service -----------------------------------------------------------

    def _daemon(self) -> _t.Generator:
        while True:
            # The simulated uplink delivers groups of one.
            (message,) = yield self.port.next_group()
            payload = message.payload
            service = self.svc_message
            if message.data_bytes:
                service += message.data_bytes / MEMORY_BANDWIDTH
            yield self.env.timeout(service)

            if isinstance(payload, NfsCreate):
                result = self._create(payload.name)
            elif isinstance(payload, NfsWrite):
                result = self._write(payload)
                # Memory pressure: force-stabilise the oldest dirty file
                # until the buffer shrinks below the limit.
                while (
                    self.cache.dirty_bytes > self.dirty_limit and self._dirty
                ):
                    victim = next(iter(self._dirty))
                    yield from self._flush_file(victim, sync=True)
                    if not self._dirty.get(victim):
                        self._dirty.pop(victim, None)
            elif isinstance(payload, NfsCommit):
                yield from self._flush_file(payload.file_id, sync=True)
                # A COMMIT is a durability barrier: the server's local
                # file system forces its metadata journal too, costing a
                # scattered small write (the real NFS3 fsync tax).
                yield self.blockdev.submit_write(
                    self._next_journal_slot(), 4096, file_id=0, sync=True
                )
                result = True
            elif isinstance(payload, NfsRead):
                result = yield from self._read(payload, message)
            elif isinstance(payload, NfsGetattr):
                result = self._files.get(payload.file_id)
            elif isinstance(payload, NfsUnlink):
                result = self._unlink(payload.file_id)
            else:
                raise TypeError(f"unknown NFS payload {payload!r}")

            self.requests_processed += 1
            self.port.reply(message, result)

    def _create(self, name: str) -> int:
        if name in self._by_name:
            return self._by_name[name]
        file = _NfsFile(file_id=self._next_id, name=name)
        self._next_id += 1
        self._files[file.file_id] = file
        self._by_name[name] = file.file_id
        return file.file_id

    def _write(self, p: NfsWrite) -> bool:
        self.cache.write(p.file_id, p.offset, p.length)
        if p.scattered:
            self._scattered_files.add(p.file_id)
        self._dirty.setdefault(p.file_id, IntervalSet()).add(
            p.offset, p.offset + p.length
        )
        file = self._files.get(p.file_id)
        if file is not None:
            file.size = max(file.size, p.offset + p.length)
        return True

    def _flush_file(self, file_id: int, sync: bool = False) -> _t.Generator:
        dirty = self._dirty.get(file_id)
        if not dirty:
            return
        ranges = list(dirty)
        dirty.clear()
        events = []
        scattered = file_id in self._scattered_files
        for start, end in ranges:
            length = end - start
            vol = self._alloc(length, scattered=scattered)
            self._extents.setdefault(file_id, []).append(
                (start, vol, length)
            )
            events.append(
                self.blockdev.submit_write(vol, length, file_id, sync=sync)
            )
        for ev in events:
            yield ev
        for start, end in ranges:
            self.cache.mark_clean(file_id, start, end - start)

    def _alloc(self, length: int, scattered: bool = False) -> int:
        if scattered:
            # Aged-namespace placement: the upper half of the volume,
            # well clear of the sequential bump region.
            half = self.volume_size // 2
            return half + self.rng.integers(0, half - length)
        if self._cursor + length > self.volume_size // 2:
            self._cursor = self._journal_region  # wrap past the journal
        offset = self._cursor
        self._cursor += length
        return offset

    def _next_journal_slot(self) -> int:
        self._journal_slot = (self._journal_slot + 4096) % (
            self._journal_region - 4096
        )
        return self._journal_slot

    def _read(
        self, p: NfsRead, message: RpcMessage
    ) -> _t.Generator:
        if not self.cache.read_hit(p.file_id, p.offset, p.length):
            events = []
            for f_off, vol, length in self._extents.get(p.file_id, ()):
                if f_off < p.offset + p.length and f_off + length > p.offset:
                    events.append(
                        self.blockdev.submit_read(vol, length, p.file_id)
                    )
            for ev in events:
                yield ev
            self.cache.fill(p.file_id, p.offset, p.length)
        message.reply_data_bytes = p.length
        return True

    def _unlink(self, file_id: int) -> bool:
        file = self._files.pop(file_id, None)
        if file is not None:
            self._by_name.pop(file.name, None)
        self._extents.pop(file_id, None)
        self._dirty.pop(file_id, None)
        self.cache.drop_file(file_id)
        return True

    def _flusher(self, interval: float) -> _t.Generator:
        while True:
            yield self.env.timeout(interval)
            for file_id in [fid for fid, d in self._dirty.items() if d]:
                yield from self._flush_file(file_id)


class Nfs3Client(FileSystemAPI):
    """Client stub: local cache plus RPCs over the shared server NIC."""

    def __init__(
        self,
        env: Environment,
        client_id: int,
        rpc: RpcClient,
        cache_capacity: _t.Optional[int],
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.rpc = rpc
        self.cache = PageCache(capacity=cache_capacity)

    def create(self, name: str) -> _t.Generator:
        file_id = yield self.rpc.call("create", NfsCreate(name=name))
        return file_id

    def write(
        self,
        file_id: int,
        offset: int,
        length: int,
        scattered: bool = False,
    ) -> _t.Generator:
        self.cache.write(file_id, offset, length)
        yield self.rpc.call(
            "write",
            NfsWrite(
                file_id=file_id,
                offset=offset,
                length=length,
                scattered=scattered,
            ),
            data_bytes=length,
        )
        # Server holds the data now; the client copy is effectively clean.
        self.cache.mark_clean(file_id, offset, length)
        return None

    def read(self, file_id: int, offset: int, length: int) -> _t.Generator:
        if self.cache.read_hit(file_id, offset, length):
            return True
        yield self.rpc.call(
            "read",
            NfsRead(file_id=file_id, offset=offset, length=length),
            reply_data_bytes=length,
        )
        self.cache.fill(file_id, offset, length)
        return True

    def fsync(self, file_id: int) -> _t.Generator:
        yield self.rpc.call("commit", NfsCommit(file_id=file_id))
        return None

    def close(self, file_id: int, sync: bool = False) -> _t.Generator:
        if sync:
            yield from self.fsync(file_id)
        return None

    def unlink(self, file_id: int) -> _t.Generator:
        yield self.rpc.call("unlink", NfsUnlink(file_id=file_id))
        self.cache.drop_file(file_id)
        return None

    def stat(self, file_id: int) -> _t.Generator:
        meta = yield self.rpc.call("getattr", NfsGetattr(file_id=file_id))
        return meta


class Nfs3Cluster(BaseCluster):
    """N clients sharing one NFS server over its single NIC."""

    system_name = "nfs3"

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 0,
        obs: _t.Optional[_t.Any] = None,
    ) -> None:
        super().__init__(Environment(), seed=seed, obs=obs)
        self.config = config
        env = self.env

        self.port = RpcServerPort(env)
        # The server's NIC: every client shares this link pair.
        self.server_uplink = Link(
            env,
            bandwidth=config.link.bandwidth,
            propagation=config.link.propagation,
            per_message_overhead=config.link.per_message_overhead,
            name="nfs-nic-rx",
        )
        self.server_downlink = Link(
            env,
            bandwidth=config.link.bandwidth,
            propagation=config.link.propagation,
            per_message_overhead=config.link.per_message_overhead,
            name="nfs-nic-tx",
        )
        self.server = Nfs3Server(
            env,
            config.disk,
            self.port,
            self.root_rng.stream("nfs-disk"),
            num_daemons=config.mds.num_daemons,
        )
        self.clients = [
            Nfs3Client(
                env,
                cid,
                RpcClient(
                    env,
                    cid,
                    RpcTransport(
                        env, self.server_uplink, self.server_downlink,
                        self.port,
                    ),
                ),
                cache_capacity=config.client_cache_capacity,
            )
            for cid in range(config.client_nodes)
        ]

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    def client_fs(self, index: int) -> Nfs3Client:
        return self.clients[index]

    def apply_cache_recommendation(self, capacity: int) -> None:
        for client in self.clients:
            client.cache.capacity = capacity
        # The server is a single node fronting everyone's namespace; its
        # buffer cache is larger than one client's but nowhere near the
        # pooled total (it shares memory with the NFS daemons and the OS).
        self.server.cache.capacity = capacity * 2

    def collect_extras(self) -> _t.Dict[str, _t.Any]:
        return {
            "server_requests": self.server.requests_processed,
            "server_nic_bytes": (
                self.server_uplink.stats.bytes
                + self.server_downlink.stats.bytes
            ),
            "server_disk_utilization": self.server.array.utilization,
        }
