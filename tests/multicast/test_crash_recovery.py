"""Replica crash/recovery: checkpoint, replay, re-learned subscriptions."""

import pytest

from repro.harness.cluster import KvCluster
from repro.kvstore import Partition, PartitionMap
from repro.storage import CheckpointStore
from repro.workload import KeyspaceWorkload


def test_checkpoint_rejected_during_pending_subscription(make_cluster):
    cluster = make_cluster(["S1", "S2"], seed=31)
    replica = cluster.add_replica("r1", "G", ["S1"])
    replica.merger._pending = type("P", (), {"stream": "S2"})()
    with pytest.raises(RuntimeError, match="during a subscription"):
        replica.make_checkpoint()


def test_recovery_resumes_without_duplicate_delivery(make_cluster):
    cluster = make_cluster(["S1", "S2"], seed=31)
    replica = cluster.add_replica("r1", "G", ["S1"])
    env, client = cluster.env, cluster.client

    for i in range(20):
        env.call_at(i * 0.01, client.multicast, "S1", ("pre", i))
    cluster.run(until=0.5)
    assert len(cluster.delivered["r1"]) == 20

    checkpoints = CheckpointStore()
    checkpoints.save(0, replica.make_checkpoint())
    replica.crash()

    # 10 messages ordered while the replica is down.
    for i in range(10):
        env.call_at(0.5 + i * 0.01, client.multicast, "S1", ("down", i))
    cluster.run(until=1.0)
    assert len(cluster.delivered["r1"]) == 20   # crashed: nothing delivered

    replica.recover_from_checkpoint(checkpoints.latest().state)
    cluster.run(until=2.0)
    # Everything exactly once, in order: the 20 pre-crash (not
    # re-delivered) plus the 10 ordered during the outage.
    assert cluster.payloads("r1") == [("pre", i) for i in range(20)] + [
        ("down", i) for i in range(10)
    ]


def test_recovery_relearns_subscription_changes(make_cluster):
    """Subscribe/unsubscribe ordered during the outage are replayed:
    the recovering replica converges to the same Σ as a live peer."""
    cluster = make_cluster(["S1", "S2"], seed=31)
    r1 = cluster.add_replica("r1", "G", ["S1"])
    r2 = cluster.add_replica("r2", "G", ["S1"])
    env, client = cluster.env, cluster.client

    for i in range(100):
        env.call_at(i * 0.01, client.multicast, "S1", ("s1", i))
    cluster.run(until=0.3)

    checkpoints = CheckpointStore()
    checkpoints.save(0, r1.make_checkpoint())
    r1.crash()

    # While r1 is down, the group subscribes to S2.
    cluster.run(until=0.4)
    client.subscribe_msg("G", new_stream="S2", via_stream="S1")

    for i in range(10):
        env.call_at(0.7 + i * 0.01, client.multicast, "S2", ("s2", i))
    cluster.run(until=1.2)
    assert r2.subscriptions == ("S1", "S2")

    r1.recover_from_checkpoint(checkpoints.latest().state)
    cluster.run(until=3.0)
    # r1 re-learned the subscription from the stream itself.
    assert r1.subscriptions == ("S1", "S2")
    # And both replicas delivered the identical sequence.
    assert cluster.delivered["r1"] == cluster.delivered["r2"]


def test_kv_replica_recovery_preserves_store():
    pmap = PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=("r1", "r2")),),
    )
    cluster = KvCluster(seed=33, lam=500, delta_t=0.05)
    cluster.add_stream("S1")
    r1 = cluster.add_replica("r1", "g1", ["S1"], pmap)
    r2 = cluster.add_replica("r2", "g2", ["S1"], pmap)
    cluster.publish_map(pmap)
    client = cluster.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=100, value_size=64), n_threads=5
    )
    cluster.run(until=1.0)

    checkpoints = CheckpointStore()
    checkpoints.save(0, r1.make_checkpoint())
    r1.crash()
    cluster.run(until=2.0)   # r2 keeps serving alone

    r1.recover_from_checkpoint(checkpoints.latest().state)
    cluster.run(until=3.5)
    # r1 caught up: identical store contents as the live replica.
    assert list(r1.store.keys()) == list(r2.store.keys())
    assert client.completed > 0
