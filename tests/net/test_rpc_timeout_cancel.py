"""Regression: the retry loop must cancel the losing timeout.

Nothing but the caller cancels a timer that lost the race to a reply:
a triggered ``any_of`` only unsubscribes from it.  Before the explicit
``timer.cancel()`` in :meth:`RpcClient._call_with_retry`, every
successful call parked a live timer on the calendar until its full
deadline -- unbounded growth under retry churn with long timeouts.
"""

from repro.net.messages import GetattrPayload
from repro.net.rpc import RetryPolicy, RpcClient
from repro.sim import Environment


class _InstantTransport:
    """Replies to every request after a tiny delay; no server needed."""

    def __init__(self, env, reply_delay=0.001, drop_first=0):
        self.env = env
        self.reply_delay = reply_delay
        #: Drop this many requests before starting to answer.
        self.drop_first = drop_first
        self.requests = 0

    def register_client(self, client_id):
        pass

    def send_request(self, message):
        self.requests += 1
        if self.requests <= self.drop_first:
            return
        delivery = self.env.timeout(self.reply_delay)
        delivery.callbacks.append(
            lambda _ev, msg=message: (
                None
                if msg.reply_event.triggered
                else msg.reply_event.succeed("pong")
            )
        )


def test_successful_calls_do_not_accumulate_live_timers():
    env = Environment()
    transport = _InstantTransport(env)
    client = RpcClient(
        env,
        1,
        transport,
        retry=RetryPolicy(base_timeout=10.0, jitter=0.0),
    )

    calls = 400

    def driver():
        for _ in range(calls):
            result = yield client.call("ping", GetattrPayload(file_id=1))
            assert result == "pong"

    proc = env.process(driver())
    env.run(until=proc)

    # Every call armed a 10 s timer and completed in ~1 ms; none of
    # those deadlines has passed yet.  Without the cancel, all ``calls``
    # timers would still sit live on the calendar here.
    assert env.now < 10.0
    assert env.pending_events < calls // 2, (
        f"{env.pending_events} events pending after {calls} calls: "
        "losing retry timers are not being cancelled"
    )
    assert client.timeouts == 0
    assert client.retries == 0
    assert transport.requests == calls


def test_retransmit_path_still_works_and_stays_bounded():
    env = Environment()
    # First two attempts of every... no: drop the first 2 requests
    # globally, so call 1 needs 3 attempts and later calls succeed
    # first try.
    transport = _InstantTransport(env, drop_first=2)
    client = RpcClient(
        env,
        1,
        transport,
        retry=RetryPolicy(
            base_timeout=0.05, max_timeout=0.2, jitter=0.0, max_attempts=10
        ),
    )

    def driver():
        for _ in range(100):
            result = yield client.call("ping", GetattrPayload(file_id=1))
            assert result == "pong"

    proc = env.process(driver())
    env.run(until=proc)

    assert client.retries == 2
    assert client.timeouts == 2
    assert client.consecutive_timeouts == 0
    # Cancelled timers purge in batches of 64; anything still pending
    # is tombstones awaiting the next sweep, not live timers.
    assert env.pending_events < 80


def test_duplicate_reply_is_ignored():
    env = Environment()

    class _DoubleReply(_InstantTransport):
        def send_request(self, message):
            for delay in (0.001, 0.002):
                delivery = self.env.timeout(delay)
                delivery.callbacks.append(
                    lambda _ev, msg=message: (
                        None
                        if msg.reply_event.triggered
                        else msg.reply_event.succeed("pong")
                    )
                )

    client = RpcClient(
        env,
        1,
        _DoubleReply(env),
        retry=RetryPolicy(base_timeout=1.0, jitter=0.0),
    )

    def driver():
        result = yield client.call("ping", GetattrPayload(file_id=1))
        assert result == "pong"

    proc = env.process(driver())
    env.run(until=proc)
    env.run()
