"""Unit tests for the in-memory sorted store."""

import pytest

from repro.kvstore.store import InMemoryStore


def test_put_get_roundtrip():
    store = InMemoryStore()
    store.put("a", 1)
    assert store.get("a") == 1
    assert store.get("missing") is None


def test_put_overwrites():
    store = InMemoryStore()
    store.put("a", 1)
    store.put("a", 2)
    assert store.get("a") == 2
    assert len(store) == 1


def test_delete_removes_key():
    store = InMemoryStore()
    store.put("a", 1)
    assert store.delete("a") is True
    assert store.delete("a") is False
    assert "a" not in store
    assert list(store.keys()) == []


def test_get_range_half_open_sorted():
    store = InMemoryStore()
    for key in ("d", "a", "c", "b", "e"):
        store.put(key, key.upper())
    assert store.get_range("b", "e") == [("b", "B"), ("c", "C"), ("d", "D")]


def test_get_range_empty_interval_raises():
    store = InMemoryStore()
    with pytest.raises(ValueError):
        store.get_range("z", "a")


def test_get_range_no_matches():
    store = InMemoryStore()
    store.put("a", 1)
    assert store.get_range("b", "c") == []


def test_retain_only_drops_and_counts():
    store = InMemoryStore()
    for i in range(10):
        store.put(f"k{i}", i)
    dropped = store.retain_only(lambda key: int(key[1:]) % 2 == 0)
    assert dropped == 5
    assert list(store.keys()) == ["k0", "k2", "k4", "k6", "k8"]


def test_keys_iterates_sorted():
    store = InMemoryStore()
    for key in ("z", "m", "a"):
        store.put(key, 0)
    assert list(store.keys()) == ["a", "m", "z"]
