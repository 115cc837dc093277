"""Unit tests for the actor base class."""

from dataclasses import dataclass

import pytest

from repro.net.actor import Actor
from repro.net.messages import Message
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class Ping(Message):
    n: int


@dataclass(frozen=True)
class UnknownThing(Message):
    pass


class Echo(Actor):
    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.seen = []

    def on_ping(self, msg, src):
        self.seen.append((msg.n, src))


def make_world():
    env = Environment()
    net = Network(env, rng=RngRegistry(2), default_link=LinkSpec(latency=0.001))
    a = Echo(env, net, "a")
    b = Echo(env, net, "b")
    a.start()
    b.start()
    return env, net, a, b


def test_dispatch_routes_by_message_class_name():
    env, net, a, b = make_world()
    a.send("b", Ping(n=7))
    env.run(until=0.1)
    assert b.seen == [(7, "a")]


def test_unknown_message_raises():
    env, net, a, b = make_world()
    a.send("b", UnknownThing())
    with pytest.raises(NotImplementedError, match="on_unknown_thing"):
        env.run(until=0.1)


def test_crashed_actor_sends_nothing():
    env, net, a, b = make_world()
    a.crash()
    a.send("b", Ping(n=1))
    env.run(until=0.1)
    assert b.seen == []


def test_crash_and_recover_cycle():
    env, net, a, b = make_world()
    b.crash()
    a.send("b", Ping(n=1))
    env.run(until=0.1)
    b.recover()
    a.send("b", Ping(n=2))
    env.run(until=0.2)
    assert b.seen == [(2, "a")]


def test_stop_halts_receive_loop_without_crash():
    env, net, a, b = make_world()
    b.stop()
    a.send("b", Ping(n=1))
    env.run(until=0.1)
    # Stopping is not lossless: the in-flight message went to the halted
    # loop's outstanding get and is dropped (like a killed process).
    assert b.seen == []
    assert not b.crashed
    b.start()
    a.send("b", Ping(n=2))
    env.run(until=0.2)
    assert b.seen == [(2, "a")]


def test_double_start_rejected():
    env, net, a, b = make_world()
    with pytest.raises(RuntimeError):
        a.start()


def test_send_all_fans_out():
    env, net, a, b = make_world()
    c = Echo(env, net, "c")
    c.start()
    a.send_all(["b", "c"], Ping(n=9))
    env.run(until=0.1)
    assert b.seen == [(9, "a")]
    assert c.seen == [(9, "a")]


def test_running_property():
    env, net, a, b = make_world()
    assert a.running
    a.stop()
    assert not a.running
