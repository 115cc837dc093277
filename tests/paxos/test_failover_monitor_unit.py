"""Unit tests for the failure-detector internals."""

import pytest

from repro.paxos.failover import FailoverMonitor, RingWatchdog
from repro.paxos.config import StreamConfig
from repro.paxos.coordinator import CoordinatorActor
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_net(seed=99):
    env = Environment()
    net = Network(env, rng=RngRegistry(seed), default_link=LinkSpec(latency=0.001))
    return env, net


def make_standby(env, net):
    net.add_host("S1/a1")   # promotion sends Phase 1a here
    config = StreamConfig(
        name="S1", acceptors=("S1/a1",), coordinator="S1/standby"
    )
    standby = CoordinatorActor(
        env, net, config, coordinator_index=1, n_coordinators=2, standby=True
    )
    standby.start()
    return standby


def test_monitor_validates_misses():
    env, net = make_net()
    standby = make_standby(env, net)
    with pytest.raises(ValueError):
        FailoverMonitor(env, net, "m", active="S1/x", standby=standby, misses=0)


def test_monitor_counts_consecutive_misses_only():
    env, net = make_net()
    standby = make_standby(env, net)
    net.add_host("S1/dead")   # exists but never answers
    fired = []
    monitor = FailoverMonitor(
        env, net, "m", active="S1/dead", standby=standby,
        interval=0.1, misses=3, on_failover=lambda: fired.append(env.now),
    )
    monitor.start()
    env.run(until=0.25)
    assert not monitor.failed_over    # only 2 misses so far
    env.run(until=0.45)
    assert monitor.failed_over
    assert fired and fired[0] == pytest.approx(0.3, abs=0.01)


def test_watchdog_validates_misses():
    env, net = make_net()
    with pytest.raises(ValueError):
        RingWatchdog(env, net, "w", targets=["a"], on_suspect=lambda t: None,
                     misses=0)


def test_watchdog_suspects_only_silent_targets():
    env, net = make_net()
    from repro.paxos.acceptor import AcceptorActor

    alive = AcceptorActor(env, net, "a-alive", stream="S")
    alive.start()
    net.add_host("a-dead")
    suspected = []
    watchdog = RingWatchdog(
        env, net, "w", targets=["a-alive", "a-dead"],
        on_suspect=suspected.append, interval=0.1, misses=3,
    )
    watchdog.start()
    env.run(until=1.0)
    assert suspected == ["a-dead"]
    assert "a-alive" not in watchdog.suspected


def test_watchdog_forget_stops_probing():
    env, net = make_net()
    net.add_host("a-dead")
    suspected = []
    watchdog = RingWatchdog(
        env, net, "w", targets=["a-dead"],
        on_suspect=suspected.append, interval=0.1, misses=3,
    )
    watchdog.start()
    watchdog.forget("a-dead")
    env.run(until=1.0)
    assert suspected == []
    assert watchdog.targets == []


def test_suspected_target_reported_once():
    env, net = make_net()
    net.add_host("a-dead")
    suspected = []
    watchdog = RingWatchdog(
        env, net, "w", targets=["a-dead"],
        on_suspect=suspected.append, interval=0.05, misses=2,
    )
    watchdog.start()
    env.run(until=2.0)
    assert suspected == ["a-dead"]
