"""Closed-loop clients and load loops as callback chains: once stopped,
nothing more leaves, and what is still armed fires without effect."""

from __future__ import annotations

from types import SimpleNamespace

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import get_scenario
from repro.harness.broadcast import BroadcastClient, DeliveryAck
from repro.kvstore.client import KvClient
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.net.actor import Actor
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry
from repro.workload.generators import KeyspaceWorkload


class Coordinator(Actor):
    """Records every Propose and answers none of them."""

    def __init__(self, env, network):
        super().__init__(env, network, "coord")
        self.proposed: list[tuple[float, object]] = []

    def on_propose(self, msg, src):
        self.proposed.append((self.env.now, msg.token))


def world():
    env = Environment()
    net = Network(env, rng=RngRegistry(1), default_link=LinkSpec(latency=0.001))
    coordinator = Coordinator(env, net)
    coordinator.start()
    directory = {"S1": SimpleNamespace(config=SimpleNamespace(coordinator="coord"))}
    return env, net, coordinator, directory


def test_broadcast_client_after_stop_threads_sends_nothing():
    env, net, coordinator, directory = world()
    client = BroadcastClient(env, net, "client", directory, timeout=1.0)
    client.start_threads("S1", 2)
    env.run(until=0.5)
    assert len(coordinator.proposed) == 2
    client.stop_threads()
    # A late ack for a stopped thread's value counts nothing either.
    first = coordinator.proposed[0][1]
    client.receive(DeliveryAck(msg_id=first.msg_id, replica="r1"), "r1")
    env.run(until=5.0)
    assert len(coordinator.proposed) == 2
    assert client.timeouts == 0 and client.ops.total == 0


def test_broadcast_client_retries_on_expiry_until_acked():
    env, net, coordinator, directory = world()
    client = BroadcastClient(env, net, "client", directory, timeout=1.0)
    client.start_threads("S1", 1)
    env.run(until=1.5)
    # Expired at 1.0: one timeout, and a fresh value sent.
    assert client.timeouts == 1 and len(coordinator.proposed) == 2
    retry = coordinator.proposed[1][1]
    assert retry.msg_id != coordinator.proposed[0][1].msg_id
    client.receive(DeliveryAck(msg_id=retry.msg_id, replica="r1"), "r1")
    env.run(until=1.6)
    assert client.ops.total == 1 and len(coordinator.proposed) == 3


def test_broadcast_client_forgets_the_attempts_of_stopped_threads():
    env, net, coordinator, directory = world()
    client = BroadcastClient(env, net, "client", directory, timeout=2.0)
    client.start_threads("S1", 3)
    env.run(until=1.0)
    client.stop_threads()
    env.run(until=10.0)
    assert len(coordinator.proposed) == 3
    assert len(client._pending) == 0


def test_kv_client_after_stop_workers_sends_nothing():
    env, net, coordinator, directory = world()
    pmap = PartitionMap(
        version=0, partitions=(Partition(index=0, stream="S1", replicas=("r1",)),)
    )
    client = KvClient(
        env, net, "c1", directory, pmap, KeyspaceWorkload(n_keys=10),
        n_threads=3, timeout=1.0, registry_name=None,
    )
    client.start_workers()
    env.run(until=0.5)
    assert len(coordinator.proposed) == 3
    client.stop_workers()
    env.run(until=5.0)
    assert len(coordinator.proposed) == 3
    assert client.timeouts == 0 and client.completed == 0


def test_kv_client_resends_after_an_expiry():
    env, net, coordinator, directory = world()
    pmap = PartitionMap(
        version=0, partitions=(Partition(index=0, stream="S1", replicas=("r1",)),)
    )
    client = KvClient(
        env, net, "c1", directory, pmap, KeyspaceWorkload(n_keys=10),
        n_threads=1, timeout=1.0, registry_name=None,
    )
    client.start_workers()
    env.run(until=2.5)
    assert client.timeouts == 2
    commands = [token.payload for _t, token in coordinator.proposed]
    assert len(commands) == 3
    assert len({command.cmd_id for command in commands}) == 1


def test_load_loop_stops_at_its_until():
    runner = ScenarioRunner(get_scenario("subscribe-mid-partition"), seed=1)
    client = runner.cluster.client
    env = runner.cluster.env
    sent = []
    multicast = client.multicast

    def recording(stream, payload=None, size=128):
        sent.append(env.now)
        return multicast(stream, payload, size)

    client.multicast = recording
    spec = runner.spec
    runner.run()
    load_until = spec.load_until()
    assert sent and max(sent) < load_until
    per_stream = load_until * spec.load_rate
    assert len(sent) <= len(spec.topology.streams) * (per_stream + 1)
