"""The two write-path step sequences of §III.A.

*Synchronous commit* (the original Redbud, steps 1-4): the application
thread issues the data write, spins until it completes, then sends the
metadata commit RPC and waits for the reply.  The entire ordered write
sits on the application's critical path.

*Delayed commit* (steps 1-4 of the delayed listing): the data write is
issued, the commit request is inserted into the commit queue (dedup per
file), and the update returns immediately -- order keeping is now the
background daemons' job.

*Unordered commit* is a deliberately broken control mode used by the
consistency tests: it enqueues commits that do **not** wait for data
stability, demonstrating that the invariant checker catches exactly the
corruption ordered writes prevent.
"""

from __future__ import annotations

import typing as _t

from repro.core.commit_queue import CommitQueue
from repro.core.records import CommitRecord
from repro.mds.extent import Extent
from repro.net.messages import CommitOp, CommitPayload
from repro.net.rpc import RpcClient
from repro.core.kernel.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects

#: Valid commit-mode names, as accepted by cluster configuration.
COMMIT_MODES = ("synchronous", "delayed", "unordered")


class CommitProtocol:
    """Strategy interface for finishing an update after ``writepage``."""

    #: Whether this protocol runs background commit daemons.
    uses_daemons = False

    def finish_update(
        self,
        file_id: int,
        extents: _t.List[Extent],
        data_events: _t.List[Event],
        update_id: _t.Optional[int] = None,
    ) -> _t.Generator:
        """Generator completing the update per the protocol's rules.

        Returns (via StopIteration) the :class:`CommitRecord` tracking
        the commit, or ``None`` if the commit already happened inline.
        ``update_id`` is the logical update's causal-trace id (None when
        tracing is off); it tags every downstream stage.
        """
        raise NotImplementedError

    def on_record_committed(self, record: CommitRecord) -> None:
        """Hook invoked by daemons when a queued record commits."""


class SynchronousCommitProtocol(CommitProtocol):
    """Ordered writes on the application's critical path."""

    def __init__(
        self,
        env: "Effects",
        rpc: RpcClient,
        node: str = "",
    ) -> None:
        self.env = env
        self.rpc = rpc
        self.obs = env.obs
        self.node = node
        self.commits_sent = 0

    def finish_update(
        self,
        file_id: int,
        extents: _t.List[Extent],
        data_events: _t.List[Event],
        update_id: _t.Optional[int] = None,
    ) -> _t.Generator:
        trace_ids = (update_id,) if update_id is not None else ()
        # Step 2: wait for local write completion (the barrier of Fig. 1a).
        wait_span = None
        if self.obs is not None:
            wait_span = self.obs.tracer.begin(
                "sync_wait_data",
                "client",
                node=self.node,
                actor="app",
                update_ids=trace_ids,
                file_id=file_id,
            )
        for event in data_events:
            yield event
        if wait_span is not None:
            self.obs.tracer.end(wait_span)
        # Steps 3-4: send the commit RPC and wait for the reply.
        payload = CommitPayload(
            ops=[
                CommitOp(
                    file_id=file_id,
                    extents=extents,
                    enqueue_time=self.env.now,
                    trace_ids=trace_ids,
                    op_id=self.rpc.next_op_id(),
                )
            ]
        )
        yield self.rpc.call("commit", payload, trace_ids=trace_ids)
        self.commits_sent += 1
        return None


class DelayedCommitProtocol(CommitProtocol):
    """Ordered writes handed to the file system's background daemons."""

    uses_daemons = True
    require_data_stable = True

    def __init__(self, queue: CommitQueue) -> None:
        self.queue = queue

    def finish_update(
        self,
        file_id: int,
        extents: _t.List[Extent],
        data_events: _t.List[Event],
        update_id: _t.Optional[int] = None,
    ) -> _t.Generator:
        # Backpressure: a full commit queue blocks the application (the
        # bound models finite client memory for pending commits).
        if not self.queue.has_room():
            yield self.queue.wait_for_room()
        record = self.queue.insert(
            file_id,
            extents,
            data_events,
            require_data_stable=self.require_data_stable,
            update_id=update_id,
        )
        # Step 3: return immediately; the daemons take it from here.
        return record


class UnorderedCommitProtocol(DelayedCommitProtocol):
    """CONTROL MODE: commits do not wait for data stability.

    This violates the ordered-writes rule on purpose so tests can show
    the invariant checker detecting dangling metadata after a crash.
    """

    require_data_stable = False


def make_protocol(
    mode: str,
    env: "Effects",
    rpc: RpcClient,
    queue: _t.Optional[CommitQueue],
    node: str = "",
) -> CommitProtocol:
    """Factory mapping a mode name to its protocol strategy."""
    if mode == "synchronous":
        return SynchronousCommitProtocol(env, rpc, node=node)
    if mode == "delayed":
        if queue is None:
            raise ValueError("delayed commit requires a commit queue")
        return DelayedCommitProtocol(queue)
    if mode == "unordered":
        if queue is None:
            raise ValueError("unordered commit requires a commit queue")
        return UnorderedCommitProtocol(queue)
    raise ValueError(f"unknown commit mode {mode!r}; pick from {COMMIT_MODES}")
