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

    for i in range(30):
        env.call_at(i * 0.002, client.multicast, "S1" if i % 2 else "S2", i)
    cluster.run(until=2.0)
    assert len(cluster.delivered["r1"]) == 30
    assert cluster.delivered["r1"] == cluster.delivered["r2"]


def test_dynamic_subscribe_while_under_load(make_cluster):
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    sent_s2 = []

    def send_s2(i):
        client.multicast("S2", payload=("s2", i))
        sent_s2.append(i)

    for i in range(100):
        env.call_at(i * 0.005, client.multicast, "S1", ("s1", i))
    env.call_at(0.2, client.subscribe_msg, "G1", "S2", "S1")
    for i in range(20):
        env.call_at(0.4 + i * 0.005, send_s2, i)
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

    for i in range(150):
        env.call_at(i * 0.004, client.multicast, "S1", ("s1", i))
        env.call_at(i * 0.004, client.multicast, "S2", ("s2", i))
    env.call_at(0.25, client.subscribe_msg, "G1", "S2", "S1")
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

    for i in range(10):
        env.call_at(i * 0.005, client.multicast, "S2", ("pre", i))
    env.call_at(0.25, client.unsubscribe_msg, "G1", "S2")
    for i in range(10):
        env.call_at(0.45 + i * 0.005, client.multicast, "S2", ("post", i))
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

    # S2 accumulates history (skips), then the background recovery the
    # hint starts completes before the subscribe.
    env.call_at(0.5, client.prepare_msg, "G1", "S2", "S1")
    env.call_at(0.8, client.subscribe_msg, "G1", "S2", "S1")
    for i in range(300):
        env.call_at(i * 0.004, client.multicast, "S1", i)
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1", "S2")
    assert len([p for p, s in cluster.delivered["r1"] if s == "S1"]) == 300


def test_reconfiguration_stream_replacement(make_cluster):
    """Fig. 5's scheme: subscribe to S2, immediately unsubscribe S1."""
    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    env, client = cluster.env, cluster.client

    def switch():
        client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
        client.unsubscribe_msg("G1", "S1", via_stream="S1")

    env.call_at(0.3, client.prepare_msg, "G1", "S2", "S1")
    env.call_at(0.5, switch)
    for i in range(10):
        env.call_at(0.8 + i * 0.005, client.multicast, "S2", ("new", i))
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S2",)
    new_payloads = [p for p, s in cluster.delivered["r1"] if s == "S2"]
    assert [i for _tag, i in new_payloads] == list(range(10))


def test_replica_learners_repair_gaps_on_the_learner_core_timeout(make_cluster):
    # Every learner task a replica hosts -- bootstrapped, or attached
    # for a subscription -- repairs gaps on the learner's one timeout.
    from repro.paxos.learner import _GAP_TIMEOUT

    cluster = make_cluster(["S1", "S2"])
    replica = cluster.add_replica("r1", "G1", ["S1"])
    cluster.client.subscribe_msg("G1", new_stream="S2", via_stream="S1")
    cluster.run(until=2.0)
    assert replica.subscriptions == ("S1", "S2")
    assert {
        stream: core._gap_timer._interval
        for stream, core in replica.learners.items()
    } == {"S1": _GAP_TIMEOUT, "S2": _GAP_TIMEOUT}
