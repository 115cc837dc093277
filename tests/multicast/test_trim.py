"""Integration tests: trimming behind the slowest consumer, the
subscribe guard, and post-trim recovery (simulated backend)."""

from repro.faults.invariants import InvariantSuite
from repro.multicast.api import MulticastClient
from repro.multicast.replica import MulticastReplica
from repro.multicast.stream import StreamDeployment
from repro.multicast.trim import (
    TRIM_EVERY_BYTES, TRIM_EVERY_TOKENS, TrimCoordinator,
)
from repro.paxos.config import StreamConfig
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry

# A value this large makes every eighth delivery a trim.
LARGE = TRIM_EVERY_BYTES // 8


def make_world(stream_names=("S1",), lam=500, delta_t=0.05):
    """Streams and their trimmer, which each replica joins as it
    attaches to one of them."""
    env = Environment()
    net = Network(env, rng=RngRegistry(21), default_link=LinkSpec(latency=0.001))
    directory = {}
    for name in stream_names:
        config = StreamConfig(
            name=name,
            acceptors=(f"{name}/a1", f"{name}/a2", f"{name}/a3"),
            lam=lam,
            delta_t=delta_t,
        )
        directory[name] = StreamDeployment(env, net, config)
        directory[name].start()
    return env, net, directory, TrimCoordinator(directory)


def make_replica(env, net, directory, name, group, streams):
    delivered = []
    replica = MulticastReplica(
        env, net, name, group, directory,
        on_deliver=lambda v, s, p: delivered.append(v.payload),
    )
    replica.bootstrap(streams)
    return replica, delivered


def feed(env, client, stream, start, stop, every=0.01, size=LARGE):
    """One ``size``-byte value to ``stream`` every ``every`` s."""
    count = round((stop - start) / every)
    for index in range(count):
        env.call_at(start + index * every, client.multicast, stream,
                    (stream, index), size)


def hold_back(replica, stream, until):
    """``replica`` drops its ``stream`` decisions until ``until``; its
    learner repairs the gap from the acceptors afterwards."""
    core = replica.learners[stream]
    learn = core.on_decision
    core.on_decision = lambda msg, src: (
        learn(msg, src) if replica.env.now >= until else None
    )


def acceptor_log_sizes(directory, stream):
    return [len(a.core.log) for a in directory[stream].acceptors]


def test_trim_waits_for_its_bytes_of_deliveries():
    env, net, directory, trimmer = make_world()
    replica, delivered = make_replica(env, net, directory, "r1", "G", ["S1"])
    client = MulticastClient(env, net, "client", directory)
    for index in range(3):
        client.multicast("S1", index, TRIM_EVERY_BYTES // 4)
    # Long enough for the skip instances to pass the token count.
    env.run(until=5.0)
    assert len(delivered) == 3 and trimmer.horizons == {}
    client.multicast("S1", 3, TRIM_EVERY_BYTES // 4)
    env.run(until=6.0)
    assert len(delivered) == 4
    below = trimmer.horizons["S1"]
    assert 0 < below <= replica.replay_floor("S1")
    assert all(
        a.core.log.trimmed_below == below for a in directory["S1"].acceptors
    )


def test_trim_waits_for_its_tokens_too():
    """A megabyte value alone does not trim: a trim is one message per
    acceptor, spread over ``TRIM_EVERY_TOKENS`` learned tokens."""
    env, net, directory, trimmer = make_world()
    replica, delivered = make_replica(env, net, directory, "r1", "G", ["S1"])
    client = MulticastClient(env, net, "client", directory)
    client.multicast("S1", 0, TRIM_EVERY_BYTES)
    # Skip instances come every delta_t (50 ms), one token each.
    env.run(until=0.05 * TRIM_EVERY_TOKENS / 2)
    assert len(delivered) == 1 and trimmer.horizons == {}
    env.run(until=0.05 * TRIM_EVERY_TOKENS * 2)
    assert 0 < trimmer.horizons["S1"] <= replica.replay_floor("S1")


def test_trim_bounds_acceptor_log_growth():
    env, net, directory, trimmer = make_world()
    replica, delivered = make_replica(env, net, directory, "r1", "G", ["S1"])
    client = MulticastClient(env, net, "client", directory)
    feed(env, client, "S1", 0.1, 10.0)
    env.run(until=10.5)
    # ~990 values and ~200 skip instances: untrimmed, a log would hold
    # them all; trimmed every eighth value, it holds what came since.
    assert len(delivered) == 990
    sizes = acceptor_log_sizes(directory, "S1")
    assert all(size < 80 for size in sizes), sizes
    assert trimmer.horizons["S1"] > 900


def test_trim_never_outpaces_slowest_consumer():
    env, net, directory, trimmer = make_world()
    r1, d1 = make_replica(env, net, directory, "r1", "G1", ["S1"])
    r2, d2 = make_replica(env, net, directory, "r2", "G2", ["S1"])
    hold_back(r2, "S1", until=3.0)
    coordinator = directory["S1"].coordinator
    issued = []
    trim = coordinator.trim

    def checked(below):
        # The horizon is the exact minimum over the consumers.
        floors = [r.replay_floor("S1") for r in (r1, r2)]
        issued.append((below, min(floors), env.now))
        trim(below)

    coordinator.trim = checked
    client = MulticastClient(env, net, "client", directory)
    feed(env, client, "S1", 0.1, 5.0)
    env.run(until=2.9)
    held = r2.replay_floor("S1")
    assert len(d1) > 200 and len(d2) < 50
    for acceptor in directory["S1"].acceptors:
        assert acceptor.core.log.trimmed_below <= held
    env.run(until=6.0)
    assert d1 == d2 and len(d1) == 490
    assert issued and all(below == exact for below, exact, _at in issued)
    assert any(at > 3.0 for _b, _e, at in issued)
    assert trimmer.horizons["S1"] == issued[-1][0]


def test_subscription_after_trim_rebases_positions():
    """A group subscribing to a long-trimmed stream still aligns: the
    learner seeds its token log at the trimmed prefix's position."""
    env, net, directory, trimmer = make_world(("S1", "S2"))
    r1, _ = make_replica(env, net, directory, "r1", "G1", ["S1"])
    # An S2-native consumer lets the trim coordinator trim S2.
    r2, _ = make_replica(env, net, directory, "r2", "G2", ["S2"])
    client = MulticastClient(env, net, "client", directory)
    feed(env, client, "S2", 0.1, 6.0)
    env.run(until=6.0)
    trimmed_before = directory["S2"].acceptors[0].core.log.trimmed_below
    assert trimmed_before > 0 and trimmer.horizons["S2"] == trimmed_before
    base = directory["S2"].acceptors[0].core.positions_trimmed

    # Now G1 subscribes to the trimmed S2.
    client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
    env.run(until=8.0)
    assert r1.subscriptions == ("S1", "S2")
    assert r1.logs["S2"].base >= base > 0
    # And delivery from S2 works post-subscription.
    for i in range(5):
        env.call_at(8.0 + i * 0.01, client.multicast, "S2", ("post", i))
    env.run(until=9.0)
    assert r1.merger.stats.per_stream_delivered.get("S2", 0) >= 5


def test_trim_paused_while_subscription_pending():
    env, net, directory, trimmer = make_world(("S1", "S2"))
    r1, _ = make_replica(env, net, directory, "r1", "G1", ["S1"])
    r2, _ = make_replica(env, net, directory, "r2", "G2", ["S2"])
    client = MulticastClient(env, net, "client", directory)
    feed(env, client, "S2", 0.1, 1.0)
    env.run(until=1.5)
    assert trimmer.horizon("S2") is not None
    # Force a pending subscription on r1 for S2.
    r1.merger._pending = type("P", (), {"stream": "S2"})()
    assert trimmer.horizon("S2") is None


def test_subscribe_guard_holds_the_new_stream_for_a_replica_behind():
    """Group H consumes SN while one replica of G is held back on S,
    G's carrier.  H and G's other replica pass the subscribe request in
    SN long before g2 even sees it in S; the guard keeps SN's acceptors
    from trimming past the request until g2 has committed too."""
    env, net, directory, trimmer = make_world(("S", "SN"))
    g1, _ = make_replica(env, net, directory, "g1", "G", ["S"])
    g2, _ = make_replica(env, net, directory, "g2", "G", ["S"])
    h1, _ = make_replica(env, net, directory, "h1", "H", ["SN"])
    replicas = {"g1": g1, "g2": g2, "h1": h1}
    suite = InvariantSuite(replicas)
    hold_back(g2, "S", until=3.0)
    client = MulticastClient(env, net, "client", directory)
    feed(env, client, "SN", 0.1, 5.0)
    feed(env, client, "S", 0.1, 5.0, every=0.05)
    env.call_at(1.0, client.subscribe_msg, "G", "SN", "S")
    env.run(until=2.9)
    assert g1.subscriptions == ("S", "SN") and g2.subscriptions == ("S",)
    assert trimmer.horizons["SN"] > 0       # trims go on up to the request
    env.run(until=8.0)
    assert g1.subscriptions == g2.subscriptions == ("S", "SN")
    assert g1.merger.stats.merge_points == g2.merger.stats.merge_points
    suite.check()
    # Once G committed everywhere the guard is gone: SN trims to the
    # exact minimum over its consumers again.
    trimmer.trim()
    floors = [r.replay_floor("SN") for r in replicas.values()]
    assert trimmer.horizons["SN"] == min(floors)
