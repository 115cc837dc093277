"""Unit tests for the static Multi-Ring Paxos merger."""

import pytest

from repro.multicast.merge import StaticMerger
from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, SkipToken


def value(tag):
    return AppValue(payload=tag)


def make(streams):
    logs = {name: TokenLog() for name in streams}
    delivered = []
    merger = StaticMerger(logs, lambda v, s, p: delivered.append((v.payload, s, p)))
    return logs, merger, delivered


def test_round_robin_alternates_streams():
    logs, merger, delivered = make(["S1", "S2"])
    for i in range(3):
        logs["S1"].append(value(f"a{i}"))
        logs["S2"].append(value(f"b{i}"))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_blocks_on_empty_stream():
    logs, merger, delivered = make(["S1", "S2"])
    logs["S1"].append(value("a0"))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["a0"]
    # S2 has nothing at position 0: S1's next value must wait.
    logs["S1"].append(value("a1"))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["a0"]
    logs["S2"].append(value("b0"))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["a0", "b0", "a1"]


def test_skips_unblock_idle_stream():
    logs, merger, delivered = make(["S1", "S2"])
    for i in range(4):
        logs["S1"].append(value(f"a{i}"))
    logs["S2"].append(SkipToken(count=4))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["a0", "a1", "a2", "a3"]


def test_single_stream_jumps_whole_skip():
    logs, merger, delivered = make(["S1"])
    logs["S1"].append(SkipToken(count=1000))
    logs["S1"].append(value("a"))
    merger.pump()
    assert delivered == [("a", "S1", 1000)]
    assert merger.positions["S1"] == 1001


def test_delivery_positions_reported():
    logs, merger, delivered = make(["S1"])
    logs["S1"].append(value("a"))
    logs["S1"].append(value("b"))
    merger.pump()
    assert delivered == [("a", "S1", 0), ("b", "S1", 1)]


def test_deterministic_stream_order_is_sorted():
    logs, merger, delivered = make(["S9", "S1"])
    logs["S1"].append(value("one"))
    logs["S9"].append(value("nine"))
    merger.pump()
    assert [v for v, _s, _p in delivered] == ["one", "nine"]


def test_empty_stream_set_rejected():
    with pytest.raises(ValueError):
        StaticMerger({}, lambda v, s, p: None)


def test_per_stream_delivery_counters():
    logs, merger, delivered = make(["S1", "S2"])
    logs["S1"].append(value("a"))
    logs["S2"].append(SkipToken(count=1))
    merger.pump()
    assert merger.delivered_per_stream == {"S1": 1, "S2": 0}


def test_notify_pumps_only_for_the_stream_the_merge_is_blocked_on():
    logs, merger, delivered = make(["S1", "S2"])
    logs["S1"].append(value("a0"))
    merger.notify("S1")
    logs["S1"].append(value("a1"))
    merger.notify("S1")   # the turn is S2's: nothing can move
    assert merger.positions == {"S1": 1, "S2": 0}
    logs["S2"].append(value("b0"))
    merger.notify("S2")
    assert [v for v, _s, _p in delivered] == ["a0", "b0", "a1"]
