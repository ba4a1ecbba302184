"""RPC plumbing: client call stubs, server inbox, reply routing.

A call crosses the uplink (client -> MDS), waits in the server's inbox
until a daemon thread picks it up, is processed, and its reply crosses
the downlink back.  The caller simply ``yield``\\ s the event returned by
:meth:`RpcClient.call`.

The inbox is shared by all clients of a server (it is the MDS's request
queue); per-client uplinks model each client's NIC while a single shared
downlink pair can model the server's NIC if desired.

Fault tolerance (``repro.faults``) hooks in at two points:

- Replies route through the sending client's :class:`RpcTransport`
  (registered with the port at client construction), so reply loss and
  delay faults on the downlink intercept them like any other message.
- When a :class:`RetryPolicy` is configured, :meth:`RpcClient.call`
  wraps the exchange in a timeout/retransmit loop with capped
  exponential backoff and jitter drawn from a dedicated sim RNG stream.
  Retransmissions reuse the *same* :class:`RpcMessage` (same xid, same
  commit op ids), which is what makes server-side duplicate suppression
  possible.  Without a policy the call path is byte-for-byte the
  original fire-and-forget behaviour.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.net.link import Link
from repro.net.messages import Payload, RpcMessage
from repro.core.kernel.events import Event
from repro.core.kernel.resources import Store

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects


class RpcTimeoutError(Exception):
    """A call exhausted ``RetryPolicy.max_attempts`` without a reply."""


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retransmit parameters for :class:`RpcClient`.

    The timeout for attempt *n* (0-based) is::

        min(max_timeout, base_timeout * multiplier**n) * (1 +- jitter)

    with the jitter factor drawn uniformly from ``[-jitter, +jitter]``
    on the client's dedicated RNG stream (so retry schedules are
    deterministic per seed and independent of all other model RNG).
    """

    #: First-attempt timeout in seconds.
    base_timeout: float = 0.05
    #: Backoff ceiling in seconds.
    max_timeout: float = 1.0
    #: Exponential backoff multiplier per failed attempt.
    multiplier: float = 2.0
    #: Uniform jitter fraction applied to each timeout (0 disables).
    jitter: float = 0.2
    #: Give up (raise :class:`RpcTimeoutError`) after this many attempts;
    #: ``None`` retries forever -- the right model for a client that must
    #: eventually reach a restarting MDS.
    max_attempts: _t.Optional[int] = None

    def timeout_for(self, attempt: int, rng: _t.Optional[_t.Any]) -> float:
        timeout = min(
            self.max_timeout, self.base_timeout * self.multiplier**attempt
        )
        if self.jitter > 0 and rng is not None:
            timeout *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return timeout


class _Inbox(Store):
    """Queued request messages; each served get takes a service group.

    A delivery is queued whole before any waiting get is served.  With
    ``n`` messages queued, ``w`` gets waiting (the one being served
    included) and ``g`` = ``group_limit`` (set by the server; 1
    otherwise), the queue is shared as ``m = min(w, ceil(n / g))``
    groups and this get takes the first ``min(g, ceil(n / m))``
    messages: idle daemons split a delivery evenly, a daemon coming back
    to a backlog takes ``g``.  ``g = 1`` is one message per get.
    """

    group_limit = 1

    def deliver(self, messages: _t.Tuple[RpcMessage, ...]) -> None:
        """Queue one delivery whole, then serve the waiting gets.

        The same admit-then-serve step as ``put``, without the put
        event: the inbox is unbounded, so a put never waits and nobody
        yields it.  Only the gets served here reach the calendar.
        """
        self._store_item(messages)
        self._serve_gets()

    def _store_item(self, messages: _t.Tuple[RpcMessage, ...]) -> None:
        self.items.extend(messages)

    def _take_item(
        self, _get: _t.Any
    ) -> _t.Optional[_t.Tuple[RpcMessage, ...]]:
        items = self.items
        if not items:
            return None
        limit = self.group_limit
        if limit == 1:  # every simulated request: skip the arithmetic
            return (items.popleft(),)
        queued = len(items)
        groups = min(len(self._gets), -(-queued // limit))
        size = min(limit, -(-queued // groups))
        return tuple([items.popleft() for _ in range(size)])


class RpcServerPort:
    """The server side: an inbox of delivered requests.

    Transports hand arriving requests to :meth:`deliver`; server daemons
    loop on :meth:`next_group` (a service group, see :class:`_Inbox`)
    and answer each message with :meth:`reply`.  While ``down`` (server
    crashed), arriving requests are dropped on the floor exactly like
    messages lost on the wire -- the sender's retry machinery is what
    recovers them.  Every counter here (received, dropped, lost,
    :attr:`queue_length`) counts requests, not groups.
    """

    def __init__(self, env: "Effects") -> None:
        self.env = env
        self.inbox = _Inbox(env)
        self.requests_received = 0
        self.replies_sent = 0
        #: Server crashed: drop arriving requests instead of queueing.
        self.down = False
        self.dropped_while_down = 0
        #: Shard-partition windows ``[(start, end), ...]``: while the
        #: clock is inside one, the port is unreachable -- arriving
        #: requests and outgoing replies are dropped as if this server's
        #: network segment were cut (``repro.faults`` shard_partition).
        self.partition_windows: _t.List[_t.Tuple[float, float]] = []
        self.partition_drops = 0
        #: Client transports by client id; replies route through these so
        #: downlink faults can intercept them (see :meth:`reply`).
        self.transports: _t.Dict[int, "RpcTransport"] = {}

    def register(self, client_id: int, transport: "RpcTransport") -> None:
        """Attach the reply path for ``client_id``."""
        self.transports[client_id] = transport

    def next_group(self):
        """Event yielding the next service group (a tuple of messages)."""
        return self.inbox.get()

    @property
    def queue_length(self) -> int:
        """Requests waiting in the inbox."""
        return len(self.inbox.items)

    def partitioned(self) -> bool:
        """True while the clock sits inside a partition window."""
        now = self.env.now
        for start, end in self.partition_windows:
            if start <= now < end:
                return True
        return False

    def deliver(self, *messages: RpcMessage) -> None:
        """Called by the transport when requests arrive off the wire.

        All of ``messages`` are queued before any waiting daemon is
        served.  While down or partitioned they are dropped, counted per
        request.
        """
        count = len(messages)
        if self.down:
            self.dropped_while_down += count
            return
        if self.partition_windows and self.partitioned():
            self.partition_drops += count
            return
        self.requests_received += count
        now = self.env.now
        for message in messages:
            message.arrive_time = now
        self.inbox.deliver(messages)

    def fail(self) -> int:
        """Crash: lose all queued requests and abandon parked consumers.

        Returns the number of in-inbox requests lost.  Waiting gets are
        cancelled because the daemon processes parked on them are being
        interrupted; leaving them behind would let a post-restart request
        complete an orphaned get nobody consumes.
        """
        self.down = True
        lost = len(self.inbox.drain())
        self.inbox.cancel_gets()
        return lost

    def resume(self) -> None:
        """Restart: accept requests again."""
        self.down = False

    def reply(
        self,
        message: RpcMessage,
        result: _t.Any,
        downlink: _t.Optional[Link] = None,
    ) -> None:
        """Send the reply for ``message`` back to its sender.

        Routes through the client's registered transport so downlink
        faults (loss/delay) apply to replies too.  ``downlink`` is the
        legacy direct path, kept for hand-assembled test servers that
        never register a transport.
        """
        message.result = result
        if self.partition_windows and self.partitioned():
            # Outbound direction of a shard partition: the reply is
            # produced but never reaches the wire.  The client's retry
            # machinery recovers it after the window closes.
            self.partition_drops += 1
            return
        self.replies_sent += 1
        transport = self.transports.get(message.client_id)
        if transport is not None:
            transport.send_reply(message)
            return
        if downlink is None:
            raise ValueError(
                f"no transport registered for client {message.client_id} "
                "and no fallback downlink given"
            )
        delivery = downlink.send(message.reply_size())
        delivery.callbacks.append(
            lambda _ev, msg=message: _deliver_reply(msg)
        )


def _deliver_reply(message: RpcMessage) -> None:
    """Complete ``message``'s reply event, ignoring duplicate replies.

    Retransmitted requests can produce several replies for one xid (the
    server answers each copy it sees); only the first to arrive wins.
    """
    if not message.reply_event.triggered:
        message.reply_event.succeed(message.result)


class RpcTransport:
    """A client's two-way connection to a server port."""

    def __init__(
        self,
        env: "Effects",
        uplink: Link,
        downlink: Link,
        port: RpcServerPort,
    ) -> None:
        self.env = env
        self.uplink = uplink
        self.downlink = downlink
        self.port = port

    def register_client(self, client_id: int) -> None:
        """Attach this client's reply path on the server port.

        A routing transport (``repro.mds.sharding``) overrides this to
        register with every shard's port; the stub calls it so it never
        needs to know how many servers exist.
        """
        self.port.register(client_id, self)

    def send_request(self, message: RpcMessage) -> None:
        delivery = self.uplink.send(message.request_size())
        delivery.callbacks.append(
            lambda _ev, msg=message: self.port.deliver(msg)
        )

    def send_reply(self, message: RpcMessage) -> None:
        delivery = self.downlink.send(message.reply_size())
        delivery.callbacks.append(
            lambda _ev, msg=message: _deliver_reply(msg)
        )


class RpcClient:
    """Client-side stub issuing calls over a transport.

    ``call`` returns an event whose value is whatever the server passed
    to :meth:`RpcServerPort.reply`: the raw reply event when no retry
    policy is set, or a process wrapping the timeout/retransmit loop
    when one is (a :class:`~repro.core.kernel.process.Process` is itself an
    event, so callers are oblivious).
    """

    def __init__(
        self,
        env: "Effects",
        client_id: int,
        transport: RpcTransport,
        retry: _t.Optional[RetryPolicy] = None,
        retry_rng: _t.Optional[_t.Any] = None,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.transport = transport
        #: Observability bundle (``repro.obs.Instrumentation``) or None.
        self.obs = env.obs
        self.retry = retry
        self.retry_rng = retry_rng
        self.calls_sent = 0
        self.ops_sent = 0
        #: Retransmissions issued / timeouts observed over the run.
        self.retries = 0
        self.timeouts = 0
        #: Timeouts since the last successful reply -- the client's
        #: degradation logic watches this to detect an unreachable MDS.
        self.consecutive_timeouts = 0
        #: Node died: in-flight retry loops park forever (a dead node
        #: sends nothing), and new calls never complete.
        self.stopped = False
        self._next_xid = 1
        self._next_op_id = 1
        transport.register_client(client_id)

    def next_op_id(self) -> int:
        """Allocate a client-unique commit-op id (duplicate suppression)."""
        op_id = self._next_op_id
        self._next_op_id += 1
        return op_id

    def stop(self) -> None:
        """Silence this stub permanently (single-node death)."""
        self.stopped = True

    def call(
        self,
        kind: str,
        payload: Payload,
        data_bytes: int = 0,
        reply_data_bytes: int = 0,
        trace_ids: _t.Tuple[int, ...] = (),
    ) -> Event:
        message = RpcMessage(
            kind=kind,
            payload=payload,
            client_id=self.client_id,
            reply_event=Event(self.env),
            send_time=self.env.now,
            data_bytes=data_bytes,
            reply_data_bytes=reply_data_bytes,
            xid=self._next_xid,
        )
        self._next_xid += 1
        self.calls_sent += 1
        self.ops_sent += message.op_count()
        if self.obs is not None:
            # Span covering uplink + server queue/service + downlink;
            # closed by a reply-event callback (recording only, so the
            # extra callback cannot perturb event ordering).
            span = self.obs.tracer.begin(
                f"rpc:{kind}",
                "rpc",
                node=f"client-{self.client_id}",
                actor="rpc",
                update_ids=tuple(trace_ids),
                ops=message.op_count(),
                request_bytes=message.request_size(),
            )
            message.trace_ids = tuple(trace_ids)
            message.trace_span_id = span.span_id
            tracer = self.obs.tracer
            message.reply_event.callbacks.append(
                lambda _ev, s=span: tracer.end(s)
            )
            self.obs.registry.counter(f"rpc.calls.{kind}").inc()
        if self.retry is None:
            self.transport.send_request(message)
            return message.reply_event
        return self.env.process(
            self._call_with_retry(message),
            name=f"rpc-retry-c{self.client_id}-x{message.xid}",
        )

    def _call_with_retry(self, message: RpcMessage):
        """Send, arm a timeout, retransmit on expiry with backoff."""
        env = self.env
        policy = self.retry
        assert policy is not None
        attempt = 0
        while True:
            if self.stopped:
                # Dead node: never transmits again, never returns.
                yield Event(env)
            self.transport.send_request(message)
            timer = env.timeout(policy.timeout_for(attempt, self.retry_rng))
            yield env.any_of([message.reply_event, timer])
            if message.reply_event.triggered:
                # The reply won the race: cancel the losing timer
                # explicitly.  The calendar entry holds a reference to
                # the timeout, so the condition's orphan-refcount sweep
                # can never reclaim it -- without the cancel every
                # successful call left a live timer on the calendar
                # until its deadline (unbounded under retry churn, and
                # a leaked real timer on the asyncio substrate).
                timer.cancel()
                self.consecutive_timeouts = 0
                return message.reply_event.value
            attempt += 1
            self.timeouts += 1
            self.consecutive_timeouts += 1
            if self.obs is not None:
                self.obs.tracer.instant(
                    "rpc_timeout",
                    "fault",
                    node=f"client-{self.client_id}",
                    actor="rpc",
                    update_ids=message.trace_ids,
                    kind=message.kind,
                    xid=message.xid,
                    attempt=attempt,
                )
                self.obs.registry.counter("rpc.timeouts").inc()
                self.obs.registry.counter("rpc.retries").inc()
            if (
                policy.max_attempts is not None
                and attempt >= policy.max_attempts
            ):
                raise RpcTimeoutError(
                    f"{message.kind} xid={message.xid} from client "
                    f"{self.client_id}: no reply after {attempt} attempts"
                )
            self.retries += 1
