"""Unit tests for the FIFO store and the mailbox that drains it."""

import pytest

from repro.runtime.kernel import Envelope
from repro.sim.core import Environment
from repro.sim.queues import QueueFull, Store


def _item(payload):
    return Envelope("src", "dst", payload, 0, 0.0, 0.0)


def test_put_then_get_preserves_fifo():
    env = Environment()
    store = Store(env)
    out = []
    for i in range(3):
        store.put_nowait(_item(i))
    store.consume(lambda payload, src: out.append(payload), "inbox")
    env.run()
    assert out == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []
    store.consume(lambda payload, src: log.append((env.now, payload)), "inbox")
    env.call_later(5, store.put_nowait, _item("x"))
    env.run()
    assert log == [(5, "x")]


def test_multiple_getters_served_in_fifo_order():
    env = Environment()
    store = Store(env)
    out = []
    store.consume(lambda payload, src: out.append(("a", payload)), "a")
    store.consume(lambda payload, src: out.append(("b", payload)), "b")
    env.run()
    store.put_nowait(_item("first"))
    store.put_nowait(_item("second"))
    env.run()
    assert out == [("a", "first"), ("b", "second")]


def test_put_nowait_raises_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(QueueFull):
        store.put_nowait("b")


def test_put_nowait_hands_directly_to_waiting_getter():
    env = Environment()
    store = Store(env, capacity=1)
    out = []
    store.consume(lambda payload, src: out.append(payload), "inbox")
    env.run()
    store.put_nowait(_item("direct"))
    assert len(store) == 0
    env.run()
    assert out == ["direct"]


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_len_and_items_snapshot():
    env = Environment()
    store = Store(env)
    store.put_nowait(1)
    store.put_nowait(2)
    assert len(store) == 2
    assert store.items == (1, 2)
