"""Automatic coordinator failover through the heartbeat monitor."""

import pytest

from repro.harness.broadcast import BroadcastClient, BroadcastReplica
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.paxos.types import AppValue
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_world(lam=500, delta_t=0.05, loss=0.0):
    env = Environment()
    net = Network(
        env, rng=RngRegistry(17), default_link=LinkSpec(latency=0.001, loss=loss)
    )
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        lam=lam,
        delta_t=delta_t,
    )
    deployment = StreamDeployment(env, net, config)
    deployment.start()
    return env, net, deployment


def test_monitor_stays_quiet_while_coordinator_alive():
    env, net, deployment = make_world()
    monitor = deployment.enable_failover(interval=0.05, misses=3)
    env.run(until=2.0)
    assert not monitor.failed_over
    assert deployment.coordinator.name == "S1/coordinator"


def test_failover_promotes_standby_and_service_continues():
    env, net, deployment = make_world()
    monitor = deployment.enable_failover(interval=0.05, misses=3)
    directory = {"S1": deployment}
    replica = BroadcastReplica(env, net, "replica-1", "G", directory)
    replica.bootstrap(["S1"])
    client = BroadcastClient(
        env, net, "client", directory, value_size=256, timeout=0.5,
        rng=RngRegistry(18).stream("c"),
    )
    client.start_threads("S1", 3)
    env.run(until=1.0)
    before = replica.delivered_ops.total
    assert before > 0

    deployment.coordinator.crash()
    env.run(until=4.0)
    assert monitor.failed_over
    assert monitor.failover_at == pytest.approx(1.0, abs=0.5)
    assert deployment.coordinator.name == "S1/coordinator-standby"
    assert deployment.coordinator.leading
    # Clients kept completing operations after the switch.
    after_rate = client.ops.rate_between(2.5, 4.0)
    assert after_rate > 0
    assert replica.delivered_ops.total > before


def test_failover_does_not_lose_or_reorder_decided_values():
    env, net, deployment = make_world()
    deployment.enable_failover(interval=0.05, misses=3)
    directory = {"S1": deployment}
    delivered = []

    class RecordingReplica(BroadcastReplica):
        def apply(self, value, stream, position):
            delivered.append(value.payload)
            super().apply(value, stream, position)

    replica = RecordingReplica(env, net, "replica-1", "G", directory)
    replica.bootstrap(["S1"])
    client = BroadcastClient(
        env, net, "client", directory, value_size=64, timeout=0.4,
        rng=RngRegistry(19).stream("c"),
    )
    client.start_threads("S1", 2)

    env.call_at(1.0, deployment.coordinator.crash)
    env.run(until=5.0)
    # At-least-once across failover (client retries may duplicate), but
    # never reordered for a single thread and nothing decided twice by
    # Paxos itself: per-instance payloads are unique.
    assert delivered, "no deliveries at all"
    # Post-failover progress happened:
    assert len(delivered) > 10


def test_promote_non_standby_rejected():
    env, net, deployment = make_world()
    with pytest.raises(RuntimeError):
        deployment.coordinator.promote()


def test_double_enable_failover_rejected():
    env, net, deployment = make_world()
    deployment.enable_failover()
    with pytest.raises(RuntimeError):
        deployment.enable_failover()


def test_monitor_tolerates_transient_loss():
    """A lossy network must not trigger spurious failover when fewer
    than ``misses`` consecutive probes disappear."""
    env, net, deployment = make_world(loss=0.1)
    monitor = deployment.enable_failover(interval=0.05, misses=5)
    env.run(until=3.0)
    assert not monitor.failed_over


def test_a_promoted_standby_arms_one_phase1_retry(monkeypatch):
    # promote() is take_over() plus the timers: between them the
    # Phase-1 retry is armed once, not once each.
    from repro.paxos import coordinator as coordinator_module

    armed = []
    real_every = coordinator_module.every

    def recording_every(env, interval, tick, first=None):
        timer = real_every(env, interval, tick, first)
        armed.append((tick.__self__.name, tick.__name__))
        return timer

    monkeypatch.setattr(coordinator_module, "every", recording_every)
    env, net, deployment = make_world()
    deployment.enable_failover(interval=0.05, misses=3)
    env.run(until=0.5)
    standby = deployment.standby
    assert (standby.name, "_phase1_retry_tick") not in armed
    deployment.coordinator.crash()
    env.run(until=2.0)
    assert deployment.coordinator is standby and standby.leading
    assert armed.count((standby.name, "_phase1_retry_tick")) == 1
