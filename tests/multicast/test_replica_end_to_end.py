"""Integration tests: MulticastReplica + MulticastClient over the network.

These exercise the full paper stack: clients propose over the network,
streams order via ring Paxos, replicas merge with the elastic dMerge,
and subscriptions change while traffic flows.  Cluster construction
comes from the shared ``make_cluster`` fixture (tests/conftest.py).
"""


def test_multicast_delivers_to_subscribed_group(make_cluster):
    cluster = make_cluster(["S1"])
    cluster.add_replica("r1", "G1", ["S1"])
    for i in range(10):
        cluster.client.multicast("S1", payload=i)
    cluster.run(until=1.0)
    assert cluster.payloads("r1") == list(range(10))


def test_two_replicas_same_group_agree(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    cluster.add_replica("r1", "G1", ["S1", "S2"])
    cluster.add_replica("r2", "G1", ["S1", "S2"])
    env, client = cluster.env, cluster.client

    def load():
        for i in range(30):
            client.multicast("S1" if i % 2 else "S2", payload=i)
            yield env.timeout(0.002)

    env.process(load())
    cluster.run(until=2.0)
    assert len(cluster.delivered["r1"]) == 30
    assert cluster.delivered["r1"] == cluster.delivered["r2"]


def test_dynamic_subscribe_while_under_load(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    sent_s2 = []

    def load():
        for i in range(100):
            client.multicast("S1", payload=("s1", i))
            yield env.timeout(0.005)

    def subscriber():
        yield env.timeout(0.2)
        client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
        yield env.timeout(0.2)
        for i in range(20):
            client.multicast("S2", payload=("s2", i))
            sent_s2.append(i)
            yield env.timeout(0.005)

    env.process(load())
    env.process(subscriber())
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1", "S2")
    delivered = cluster.delivered["r1"]
    s1_payloads = [p for p, s in delivered if s == "S1"]
    s2_payloads = [p for p, s in delivered if s == "S2"]
    assert len(s1_payloads) == 100          # nothing from S1 is lost
    assert [i for _tag, i in s2_payloads] == sent_s2  # post-merge-point S2 all arrive


def test_dynamic_subscribe_two_replicas_identical_order(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    r1 = cluster.add_replica("r1", "G1", ["S1"])
    r2 = cluster.add_replica("r2", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    def load():
        for i in range(150):
            client.multicast("S1", payload=("s1", i))
            client.multicast("S2", payload=("s2", i))
            yield env.timeout(0.004)

    def subscriber():
        yield env.timeout(0.25)
        client.subscribe_msg("G1", new_stream="S2", via_stream="S1")

    env.process(load())
    env.process(subscriber())
    cluster.run(until=3.0)
    assert r1.subscriptions == ("S1", "S2")
    assert r2.subscriptions == ("S1", "S2")
    assert cluster.delivered["r1"] == cluster.delivered["r2"]
    # All of S1 plus the post-merge-point part of S2.
    assert len(cluster.delivered["r1"]) > 150


def test_unsubscribe_stops_delivery_from_stream(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1", "S2"])
    env, client = cluster.env, cluster.client

    def scenario():
        for i in range(10):
            client.multicast("S2", payload=("pre", i))
            yield env.timeout(0.005)
        yield env.timeout(0.2)
        client.unsubscribe_msg("G1", "S2")
        yield env.timeout(0.2)
        for i in range(10):
            client.multicast("S2", payload=("post", i))
            yield env.timeout(0.005)

    env.process(scenario())
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1",)
    tags = [p[0] for p, s in cluster.delivered["r1"] if s == "S2"]
    assert tags == ["pre"] * 10
    # The learner task for S2 was stopped and deregistered.
    assert "S2" not in replica.learners


def test_prepare_msg_enables_stall_free_subscription(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    def scenario():
        yield env.timeout(0.5)   # S2 accumulates history (skips)
        client.prepare_msg("G1", new_stream="S2", via_stream="S1")
        yield env.timeout(0.3)   # background recovery completes
        client.subscribe_msg("G1", new_stream="S2", via_stream="S1")

    env.process(scenario())

    def load():
        for i in range(300):
            client.multicast("S1", payload=i)
            yield env.timeout(0.004)

    env.process(load())
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1", "S2")
    assert len([p for p, s in cluster.delivered["r1"] if s == "S1"]) == 300


def test_reconfiguration_stream_replacement(make_cluster):
    """Fig. 5's scheme: subscribe to S2, immediately unsubscribe S1."""
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    def scenario():
        yield env.timeout(0.3)
        client.prepare_msg("G1", new_stream="S2", via_stream="S1")
        yield env.timeout(0.2)
        client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
        client.unsubscribe_msg("G1", "S1", via_stream="S1")
        yield env.timeout(0.3)
        for i in range(10):
            client.multicast("S2", payload=("new", i))
            yield env.timeout(0.005)

    env.process(scenario())
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S2",)
    new_payloads = [p for p, s in cluster.delivered["r1"] if s == "S2"]
    assert [i for _tag, i in new_payloads] == list(range(10))


def test_replica_learners_repair_gaps_on_the_learner_core_timeout(make_cluster):
    # A replica has no gap timeout of its own: every learner task it
    # hosts -- bootstrapped, or attached for a subscription -- repairs
    # gaps on the one LearnerCore states.
    import inspect

    from repro.harness.broadcast import BroadcastReplica
    from repro.kvstore.replica import KvReplica
    from repro.multicast.replica import MulticastReplica
    from repro.paxos.learner import LearnerCore

    stated = inspect.signature(LearnerCore).parameters["gap_timeout"].default
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    cluster.client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1", "S2")
    assert {
        stream: core.gap_timeout for stream, core in replica.learners.items()
    } == {"S1": stated, "S2": stated}
    for cls in (MulticastReplica, KvReplica, BroadcastReplica):
        assert "gap_timeout" not in inspect.signature(cls).parameters
