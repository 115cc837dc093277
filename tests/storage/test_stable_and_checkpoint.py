"""Unit tests for stable storage and checkpoints."""

import pytest

from repro.sim.core import Environment
from repro.storage.checkpoint import CheckpointStore
from repro.storage.stable import StableStore


def test_memory_store_is_instantaneous():
    env = Environment()
    store = StableStore(env)
    assert store.is_instantaneous
    done = []
    store.write(100, done.append, "durable")
    assert store.writes == 1
    assert store.bytes_written == 100
    env.run()
    assert done == ["durable"] and env.now == 0.0


def test_write_latency_delays_completion():
    env = Environment()
    store = StableStore(env, write_latency=0.01)
    done = []
    store.write(10, lambda: done.append(env.now))
    env.run()
    assert done == [pytest.approx(0.01)]


def test_bandwidth_serialises_writes():
    env = Environment()
    store = StableStore(env, write_latency=0.0, write_bandwidth=1000.0)
    done = []
    for name in ("a", "b"):
        store.write(1000, lambda name=name: done.append((name, env.now)))  # 1 s each
    env.run()
    assert done[0] == ("a", pytest.approx(1.0))
    assert done[1] == ("b", pytest.approx(2.0))


def test_bandwidth_and_latency_call_back_once_after_queue_plus_latency():
    env = Environment()
    store = StableStore(env, write_latency=0.25, write_bandwidth=1000.0)
    done = []
    env.call_later(1.0, store.write, 500, lambda: done.append(env.now))
    env.run()
    # Queued at 1.0, on the device for 0.5 s, then the fixed latency.
    assert done == [pytest.approx(1.75)]


def test_negative_sizes_rejected():
    env = Environment()
    store = StableStore(env)
    with pytest.raises(ValueError):
        store.write(-1, lambda: None)
    with pytest.raises(ValueError):
        StableStore(env, write_latency=-0.1)


def test_checkpoint_save_and_latest():
    store = CheckpointStore()
    assert store.latest() is None
    store.save(10, {"a": 1})
    checkpoint = store.save(20, {"a": 2})
    assert store.latest() is checkpoint
    assert store.latest().position == 20


def test_checkpoint_state_is_deep_copied():
    store = CheckpointStore()
    state = {"a": [1]}
    store.save(1, state)
    state["a"].append(2)
    assert store.latest().state == {"a": [1]}


def test_checkpoint_position_monotonic():
    store = CheckpointStore()
    store.save(10, {})
    with pytest.raises(ValueError):
        store.save(5, {})


def test_checkpoint_retention():
    store = CheckpointStore(keep=2)
    for position in (1, 2, 3, 4):
        store.save(position, {})
    assert len(store) == 2
    assert store.latest().position == 4


def test_checkpoint_keep_validation():
    with pytest.raises(ValueError):
        CheckpointStore(keep=0)
