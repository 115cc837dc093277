"""Unit tests for the fault orchestrator against a bare network."""

import pytest

from repro.faults.orchestrator import FaultOrchestrator
from repro.faults.schedule import (
    ClockStep,
    CrashAt,
    DuplicateWindow,
    LossWindow,
    PartitionWindow,
    RecoverAt,
    Schedule,
    UnsupportedAction,
)
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_net():
    env = Environment()
    net = Network(env, rng=RngRegistry(3), default_link=LinkSpec(latency=0.001))
    for name in ("a", "b"):
        net.add_host(name)
    return env, net


def test_partition_window_applied_and_lifted():
    env, net = make_net()
    orch = FaultOrchestrator(env, net)
    orch.execute(
        Schedule(
            name="t",
            actions=(
                PartitionWindow(start=0.1, end=0.3, side_a=("a",), side_b=("b",)),
            ),
        )
    )
    env.run(until=0.2)
    assert net.is_partitioned("a", "b")
    env.run(until=0.4)
    assert not net.is_partitioned("a", "b")
    assert [text for _at, text in orch.events] == [
        "begin partition {a} | {b}",
        "end partition {a} | {b}",
    ]


def test_overlay_windows_install_and_remove_rules():
    env, net = make_net()
    orch = FaultOrchestrator(env, net)
    orch.execute(
        Schedule(
            name="t",
            actions=(
                LossWindow(start=0.1, end=0.5, loss=1.0, src=("a",)),
                DuplicateWindow(start=0.2, end=0.3, probability=1.0),
            ),
        )
    )
    env.run(until=0.25)
    assert len(net._fault_rules) == 2
    env.run(until=0.4)
    assert len(net._fault_rules) == 1
    env.run(until=0.6)
    assert net._fault_rules == []


def test_crash_and_recover_via_host():
    env, net = make_net()
    orch = FaultOrchestrator(env, net)
    orch.execute(
        Schedule(
            name="t",
            actions=(
                CrashAt(at=0.1, target="b"),
                RecoverAt(at=0.2, target="b"),
            ),
        )
    )
    env.run(until=0.15)
    assert net.host("b").crashed
    env.run(until=0.25)
    assert not net.host("b").crashed


def test_recover_hook_takes_precedence():
    env, net = make_net()
    calls = []
    orch = FaultOrchestrator(env, net)
    orch.recover_hooks["b"] = lambda: calls.append("recover")
    orch.execute(
        Schedule(
            name="t",
            actions=(
                CrashAt(at=0.1, target="b"),
                RecoverAt(at=0.2, target="b"),
            ),
        )
    )
    env.run(until=0.15)
    assert net.host("b").crashed
    env.run(until=0.3)
    assert calls == ["recover"]
    assert net.host("b").crashed   # the hook owned the transition


def test_a_clock_step_is_refused_before_anything_is_armed():
    env, net = make_net()
    orch = FaultOrchestrator(env, net)
    with pytest.raises(UnsupportedAction,
                       match="simulator cannot run it .its hosts share"):
        orch.execute(Schedule(name="t", actions=(
            CrashAt(at=0.1, target="a"),
            ClockStep(at=0.2, target="a", delta=0.5),
        )))
    env.run(until=0.3)
    assert not net.host("a").crashed and orch.events == []
