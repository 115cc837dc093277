"""Unit tests for the configuration registry."""

from repro.coordination.registry import RegistryClient, RegistryService
from repro.net.actor import Actor
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


class StubActor(Actor):
    """A test actor that forwards registry replies to its client stub."""

    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.registry = RegistryClient(self)

    def dispatch(self, payload, src):
        if self.registry.handle_registry_message(payload):
            return
        super().dispatch(payload, src)


def make_world():
    env = Environment()
    net = Network(env, rng=RngRegistry(3), default_link=LinkSpec(latency=0.001))
    service = RegistryService(env, net)
    service.start()
    actor = StubActor(env, net, "actor")
    actor.start()
    return env, net, service, actor


def test_get_missing_key_reports_version_minus_one():
    env, net, service, actor = make_world()
    results = []
    actor.registry.get("nope", lambda value, version: results.append((value, version)))
    env.run(until=0.1)
    assert results == [(None, -1)]


def test_set_then_get_roundtrip():
    env, net, service, actor = make_world()
    results = []
    actor.registry.set("config", {"n": 3}, callback=results.append)
    env.run(until=0.1)
    assert results == [0]
    got = []
    actor.registry.get("config", lambda value, version: got.append((value, version)))
    env.run(until=0.2)
    assert got == [({"n": 3}, 0)]


def test_versions_increment_per_key():
    env, net, service, actor = make_world()
    versions = []
    actor.registry.set("k", "a", callback=versions.append)
    actor.registry.set("k", "b", callback=versions.append)
    actor.registry.set("other", "x", callback=versions.append)
    env.run(until=0.1)
    assert versions == [0, 1, 0]


def test_watch_fires_on_set_and_reports_initial_state():
    env, net, service, actor = make_world()
    events = []
    actor.registry.watch("map", lambda value, version: events.append((value, version)))
    env.run(until=0.05)
    assert events == [(None, -1)]   # initial snapshot
    actor.registry.set("map", "v1")
    env.run(until=0.1)
    assert events[-1] == ("v1", 0)


def test_watch_is_persistent_across_updates():
    env, net, service, actor = make_world()
    events = []
    actor.registry.watch("map", lambda value, version: events.append(version))
    actor.registry.set("map", "v1")
    actor.registry.set("map", "v2")
    env.run(until=0.2)
    assert events == [-1, 0, 1]


def test_multiple_watchers_all_notified():
    env, net, service, actor = make_world()
    actor2 = StubActor(env, net, "actor2")
    actor2.start()
    e1, e2 = [], []
    actor.registry.watch("map", lambda v, ver: e1.append(v))
    actor2.registry.watch("map", lambda v, ver: e2.append(v))
    env.run(until=0.05)
    service.put_local("map", "new")
    env.run(until=0.1)
    assert e1[-1] == "new"
    assert e2[-1] == "new"


def test_put_local_and_get_local():
    env, net, service, actor = make_world()
    assert service.put_local("k", 1) == 0
    assert service.put_local("k", 2) == 1
    results = []
    actor.registry.get("k", lambda value, version: results.append((value, version)))
    env.run(until=0.1)
    assert results == [(2, 1)]
