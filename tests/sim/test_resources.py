"""Tests for Resource, Store, PriorityStore, FilterStore and Container."""

import pytest

from repro.core.kernel import (
    Container,
    FilterStore,
    PriorityItem,
    PriorityStore,
    Resource,
    Store,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


# -- Resource ----------------------------------------------------------------


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    log = []

    def worker(env, res, tag):
        with res.request() as req:
            yield req
            log.append((tag, "start", env.now))
            yield env.timeout(10)
        log.append((tag, "end", env.now))

    for tag in "abc":
        env.process(worker(env, res, tag))
    env.run()
    starts = {tag: t for tag, what, t in log if what == "start"}
    assert starts["a"] == 0 and starts["b"] == 0
    assert starts["c"] == 10  # had to wait for a slot


def test_resource_release_without_hold_raises(env):
    res = Resource(env)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    env.process(proc(env))
    env.run()


def test_resource_capacity_growth_grants_waiters(env):
    res = Resource(env, capacity=1)
    granted = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(100)

    def waiter(env):
        req = res.request()
        yield req
        granted.append(env.now)

    def grower(env):
        yield env.timeout(5)
        res.capacity = 2

    env.process(holder(env))
    env.process(waiter(env))
    env.process(grower(env))
    env.run()
    assert granted == [5.0]


def test_resource_cancel_waiting_request(env):
    res = Resource(env, capacity=1)

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def impatient(env, log):
        req = res.request()
        result = yield req | env.timeout(1)
        if req not in result:
            req.cancel()
            log.append("gave up")
        yield env.timeout(0)

    log = []
    env.process(holder(env))
    env.process(impatient(env, log))
    env.run()
    assert log == ["gave up"]
    assert list(res.queue) == []


def test_resource_invalid_capacity(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# -- Store --------------------------------------------------------------------


def test_store_fifo(env):
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    log = []

    def consumer(env):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(7.0, "x")]


def test_store_capacity_blocks_put(env):
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a in", env.now))
        yield store.put("b")
        log.append(("b in", env.now))

    def consumer(env):
        yield env.timeout(5)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a in", 0.0), ("b in", 5.0)]


def test_store_len(env):
    store = Store(env)
    store.put("a")
    store.put("b")
    env.run()
    assert len(store) == 2


# -- PriorityStore -------------------------------------------------------------


def test_priority_store_orders_items(env):
    store = PriorityStore(env)
    got = []

    def producer(env):
        yield store.put(PriorityItem(3, "low"))
        yield store.put(PriorityItem(1, "high"))
        yield store.put(PriorityItem(2, "mid"))

    def consumer(env):
        yield env.timeout(1)
        for _ in range(3):
            item = yield store.get()
            got.append(item.item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["high", "mid", "low"]


# -- FilterStore ---------------------------------------------------------------


def test_filter_store_matches_predicate(env):
    store = FilterStore(env)
    got = []

    def producer(env):
        for i in range(5):
            yield store.put(i)

    def consumer(env):
        item = yield store.get(lambda x: x % 2 == 1)
        got.append(item)
        item = yield store.get(lambda x: x % 2 == 1)
        got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [1, 3]
    assert sorted(store.items) == [0, 2, 4]


def test_filter_store_notify_rechecks_predicates(env):
    store = FilterStore(env)
    box = {"ready": False}
    got = []

    def consumer(env):
        item = yield store.get(lambda x: box["ready"])
        got.append((env.now, item))

    def mutator(env):
        yield store.put("record")
        yield env.timeout(4)
        box["ready"] = True
        store.notify()

    env.process(consumer(env))
    env.process(mutator(env))
    env.run()
    assert got == [(4.0, "record")]


# -- Container -------------------------------------------------------------------


def test_container_levels(env):
    box = Container(env, capacity=100, init=50)

    def proc(env):
        yield box.get(30)
        assert box.level == 20
        yield box.put(60)
        assert box.level == 80

    env.process(proc(env))
    env.run()


def test_container_get_blocks_until_enough(env):
    box = Container(env, capacity=100, init=0)
    log = []

    def consumer(env):
        yield box.get(10)
        log.append(env.now)

    def producer(env):
        yield env.timeout(2)
        yield box.put(5)
        yield env.timeout(2)
        yield box.put(5)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [4.0]


def test_container_put_blocks_at_capacity(env):
    box = Container(env, capacity=10, init=10)
    log = []

    def producer(env):
        yield box.put(5)
        log.append(env.now)

    def consumer(env):
        yield env.timeout(3)
        yield box.get(5)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [3.0]


def test_container_validation(env):
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=10, init=20)
    box = Container(env, capacity=10)
    with pytest.raises(ValueError):
        box.get(0)
    with pytest.raises(ValueError):
        box.put(-1)
