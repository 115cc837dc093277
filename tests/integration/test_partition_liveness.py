"""Partial synchrony (§II): safety always, liveness after GST.

Network partitions injected mid-protocol: the affected operations block
(safety is never violated, nothing is delivered out of order) and
complete once the partition heals -- "GST" in the paper's model.
"""


def test_partitioned_stream_blocks_then_resumes(make_cluster):
    cluster = make_cluster(("S1",), seed=61)
    cluster.add_replica("r1", "G", ["S1"])
    net, client = cluster.network, cluster.client
    for i in range(5):
        client.multicast("S1", payload=("pre", i))
    cluster.run(until=0.5)
    assert len(cluster.delivered["r1"]) == 5

    # Partition the coordinator from all acceptors: nothing decides.
    net.partition({"S1/coordinator"}, {"S1/a1", "S1/a2", "S1/a3"})
    for i in range(5):
        client.multicast("S1", payload=("during", i))
    cluster.run(until=2.0)
    assert len(cluster.delivered["r1"]) == 5   # blocked, not lost, not reordered

    net.heal()
    cluster.run(until=5.0)
    payloads = cluster.payloads("r1")
    assert payloads[:5] == [("pre", i) for i in range(5)]
    # After GST the retransmit machinery pushes the blocked values through.
    assert set(payloads[5:]) == {("during", i) for i in range(5)}


def test_subscription_blocked_by_partition_completes_after_heal(make_cluster):
    cluster = make_cluster(("S1", "S2"), seed=61)
    replica = cluster.add_replica("r1", "G", ["S1"])
    net, client = cluster.network, cluster.client
    cluster.run(until=0.3)
    # The replica cannot reach S2's acceptors: the subscription's scan
    # of the new stream cannot proceed.
    net.partition({"r1"}, {"S2/a1", "S2/a2", "S2/a3"})
    client.subscribe_msg("G", new_stream="S2", via_stream="S1")
    cluster.run(until=1.5)
    assert replica.merger.pending_subscription == "S2"
    assert replica.subscriptions == ("S1",)

    net.heal()
    cluster.run(until=6.0)
    assert replica.merger.pending_subscription is None
    assert replica.subscriptions == ("S1", "S2")


def test_replica_partitioned_from_one_stream_stalls_merge_only(make_cluster):
    """A replica cut off from one of its streams stops delivering (the
    merge is strict) but catches up identically after healing."""
    cluster = make_cluster(("S1", "S2"), seed=61)
    cluster.add_replica("r1", "G1", ["S1", "S2"])
    cluster.add_replica("r2", "G2", ["S1", "S2"])
    env, net, client = cluster.env, cluster.network, cluster.client

    for i in range(200):
        env.call_at(i * 0.01, client.multicast, "S1" if i % 2 else "S2", i)
    cluster.run(until=0.5)
    net.partition({"r1"}, {"S2/a1", "S2/a2", "S2/a3"})
    cluster.run(until=1.5)
    # r1 is behind r2 (its S2 feed is cut)...
    assert len(cluster.delivered["r1"]) < len(cluster.delivered["r2"])
    net.heal()
    cluster.run(until=6.0)
    # ...but converges to the identical sequence after the heal.
    assert cluster.delivered["r1"] == cluster.delivered["r2"]
    assert len(cluster.delivered["r1"]) == 200
