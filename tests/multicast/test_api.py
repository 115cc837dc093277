"""Unit tests for the MulticastClient API surface."""

import pytest

from repro.multicast.api import MulticastClient
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.paxos.types import AppValue
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_world():
    env = Environment()
    net = Network(env, rng=RngRegistry(101), default_link=LinkSpec(latency=0.001))
    directory = {}
    for name in ("S1", "S2"):
        config = StreamConfig(
            name=name,
            acceptors=(f"{name}/a1", f"{name}/a2", f"{name}/a3"),
            lam=200,
            delta_t=0.05,
        )
        directory[name] = StreamDeployment(env, net, config)
        directory[name].start()
    client = MulticastClient(env, net, "client", directory)
    return env, net, directory, client


def test_multicast_returns_trackable_value():
    env, net, directory, client = make_world()
    value = client.multicast("S1", payload="x", size=512)
    assert isinstance(value, AppValue)
    assert value.sender == "client"
    assert value.size == 512


def test_multicast_unknown_stream_raises():
    env, net, directory, client = make_world()
    with pytest.raises(KeyError, match="S9"):
        client.multicast("S9", payload="x")


def test_subscribe_requires_distinct_streams():
    env, net, directory, client = make_world()
    with pytest.raises(ValueError):
        client.subscribe_msg("G", new_stream="S1", via_stream="S1")


def test_subscribe_sends_same_request_id_to_both_streams():
    env, net, directory, client = make_world()
    request_id = client.subscribe_msg("G", new_stream="S2", via_stream="S1")
    env.run(until=0.5)
    found = []
    for name in ("S1", "S2"):
        acceptor = directory[name].acceptors[0]
        for instance in acceptor.core.log.decided_instances():
            batch = acceptor.core.log.decided_value(instance)
            for token in batch.tokens:
                if getattr(token, "request_id", None) == request_id:
                    found.append(name)
    assert sorted(found) == ["S1", "S2"]


def test_unsubscribe_defaults_to_the_stream_itself():
    env, net, directory, client = make_world()
    request_id = client.unsubscribe_msg("G", "S2")
    env.run(until=0.5)
    acceptor = directory["S2"].acceptors[0]
    ids = [
        getattr(token, "request_id", None)
        for instance in acceptor.core.log.decided_instances()
        for token in acceptor.core.log.decided_value(instance).tokens
    ]
    assert request_id in ids


def test_prepare_is_ordered_in_the_via_stream_only():
    env, net, directory, client = make_world()
    request_id = client.prepare_msg("G", new_stream="S2", via_stream="S1")
    env.run(until=0.5)

    def ids_in(stream):
        acceptor = directory[stream].acceptors[0]
        return [
            getattr(token, "request_id", None)
            for instance in acceptor.core.log.decided_instances()
            for token in acceptor.core.log.decided_value(instance).tokens
        ]

    assert request_id in ids_in("S1")
    assert request_id not in ids_in("S2")
