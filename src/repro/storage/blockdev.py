"""The block-device interface a client uses to reach the shared array.

A :class:`BlockDevice` binds one client's elevator queue to the array and
exposes the two calls the file-system layer needs:

- :meth:`BlockDevice.submit_write` / :meth:`submit_read` -- queue an I/O
  and get back its completion event (the ``writepage`` of §III.A: issue
  now, wait -- or not -- later).

Synchronous commit yields the completion immediately after submitting;
delayed commit stores it in the commit record and lets the background
daemon wait instead.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernel.events import Event
from repro.storage.disk import DiskArray
from repro.storage.scheduler import READ, WRITE, BlockRequest, ElevatorScheduler

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


class BlockDevice:
    """Per-client block-layer entry point."""

    def __init__(
        self,
        env: "Effects",
        client_id: int,
        array: DiskArray,
        max_merge_bytes: int = 512 * 1024,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.array = array
        #: Per-shard write-generation fencing tokens stamped into every
        #: request (keyed by the metadata shard owning the request's
        #: volume range; a single-MDS deployment only uses shard 0).
        #: The *array-side* fence generation moves on lease reclaim, at
        #: which point this client's outstanding writes on that shard's
        #: slice are rejected.  When the client is next heard from,
        #: re-admission (``RedbudCluster._readmit_client``) re-stamps
        #: the shard's entry to the current array generation -- the
        #: collapsed form of the NFSv4 state re-establishment handshake.
        self.write_generations: _t.Dict[int, int] = {}
        self.scheduler = ElevatorScheduler(
            env, client_id, max_merge_bytes=max_merge_bytes
        )
        array.attach(self.scheduler)

    def submit_write(
        self,
        start: int,
        length: int,
        file_id: int,
        sync: bool = False,
        trace_update: _t.Optional[int] = None,
    ) -> Event:
        """Queue a data write; returns its completion event (writepage).

        ``sync`` marks a write the application is blocked on: it skips
        block-layer plugging and is dispatched as soon as the elevator
        reaches it.  ``trace_update`` tags the request with its causal
        update id when tracing is on.
        """
        return self._submit(WRITE, start, length, file_id, sync, trace_update)

    def submit_read(self, start: int, length: int, file_id: int) -> Event:
        """Queue a data read; returns its completion event."""
        return self._submit(READ, start, length, file_id, sync=True)

    def expedite_file(self, file_id: int) -> None:
        """Unplug pending writes of a file (the fsync writeback kick)."""
        self.scheduler.expedite_file(file_id)

    def _submit(
        self,
        op: str,
        start: int,
        length: int,
        file_id: int,
        sync: bool,
        trace_update: _t.Optional[int] = None,
    ) -> Event:
        completion = Event(self.env)
        request = BlockRequest(
            op=op,
            start=start,
            length=length,
            client_id=self.client_id,
            file_id=file_id,
            submit_time=self.env.now,
            completion=completion,
            sync=sync,
            trace_update=trace_update,
            write_generation=self.write_generations.get(
                self.array.shard_of_offset(start), 0
            ),
        )
        self.scheduler.submit(request)
        return completion

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler)
