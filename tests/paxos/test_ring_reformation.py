"""Ring reformation: surviving an acceptor crash in ring mode."""

import pytest

from repro.harness.broadcast import BroadcastClient, BroadcastReplica
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_world(seed=43):
    env = Environment()
    net = Network(env, rng=RngRegistry(seed), default_link=LinkSpec(latency=0.001))
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        lam=500,
        delta_t=0.05,
    )
    deployment = StreamDeployment(env, net, config)
    deployment.start()
    directory = {"S1": deployment}
    replica = BroadcastReplica(env, net, "replica", "G", directory)
    replica.bootstrap(["S1"])
    client = BroadcastClient(
        env, net, "client", directory, value_size=128, timeout=0.5,
        rng=RngRegistry(seed + 1).stream("c"),
    )
    client.start_threads("S1", 3)
    return env, net, deployment, replica, client


def test_acceptor_crash_stalls_unwatched_ring():
    env, net, deployment, replica, client = make_world()
    env.run(until=1.0)
    deployment.acceptors[1].crash()   # middle of the ring
    stalled_from = replica.delivered_ops.total
    env.run(until=3.0)
    # Without reformation the ring cannot complete Phase 2.
    assert replica.delivered_ops.total - stalled_from < 20


def test_manual_ring_reformation_resumes_service():
    env, net, deployment, replica, client = make_world()
    env.run(until=1.0)
    deployment.acceptors[1].crash()
    env.run(until=1.5)
    deployment.reform_ring("S1/a2")
    env.run(until=4.0)
    assert deployment.config.acceptors == ("S1/a1", "S1/a3")
    rate = client.ops.rate_between(2.5, 4.0)
    assert rate > 0
    assert deployment.coordinator.leading


def test_watchdog_reforms_automatically():
    env, net, deployment, replica, client = make_world()
    watchdog = deployment.enable_ring_watchdog(interval=0.1, misses=3)
    env.run(until=1.0)
    deployment.acceptors[0].crash()   # the ring's head this time
    env.run(until=5.0)
    assert "S1/a1" in watchdog.suspected
    assert deployment.config.acceptors == ("S1/a2", "S1/a3")
    assert client.ops.rate_between(3.0, 5.0) > 0


def test_reform_below_majority_rejected():
    env, net, deployment, replica, client = make_world()
    env.run(until=0.5)
    deployment.reform_ring("S1/a1")
    with pytest.raises(RuntimeError, match="no majority"):
        deployment.reform_ring("S1/a2")


def test_watchdog_quiet_on_healthy_ring():
    env, net, deployment, replica, client = make_world()
    watchdog = deployment.enable_ring_watchdog(interval=0.1, misses=3)
    env.run(until=3.0)
    assert watchdog.suspected == set()
    assert deployment.config.acceptors == ("S1/a1", "S1/a2", "S1/a3")


def test_a_takeover_after_leading_retries_a_lost_phase1():
    # The coordinator led before the reform, so its retry timer had
    # ended; the take-over's Phase 1 is lost in full.  It must be
    # retried once the loss is gone, not left to stall the stream.
    from repro.sim.network import FaultRule

    env, net, deployment, replica, client = make_world()
    env.run(until=1.0)
    deployment.acceptors[1].crash()
    env.run(until=1.5)
    assert deployment.coordinator.leading
    rule = net.add_fault(FaultRule(src="S1/coordinator", loss=1.0))
    deployment.reform_ring("S1/a2")
    env.run(until=1.6)
    net.remove_fault(rule)
    env.run(until=6.0)
    assert deployment.coordinator.leading
    assert client.ops.rate_between(3.0, 6.0) > 0
