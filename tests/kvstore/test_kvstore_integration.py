"""Integration tests: the partitioned key/value store end to end."""

import pytest

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.workload.generators import KeyspaceWorkload, key_name


def single_partition_map(replicas=("r1", "r2"), shared=None):
    return PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=tuple(replicas)),),
        shared_stream=shared,
    )


def small_cluster(pmap, lam=500, delta_t=0.05, seed=5):
    cluster = MulticastCluster(
        seed=seed, link_latency=0.0005, lam=lam, delta_t=delta_t
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    return cluster, kv


def test_put_then_get_linearizable():
    pmap = single_partition_map()
    cluster, kv = small_cluster(pmap)
    for name in ("r1", "r2"):
        kv.add_replica(name, f"g-{name}", ["S1"], pmap)
    kv.publish_map(pmap)
    workload = KeyspaceWorkload(n_keys=50, value_size=64, put_fraction=0.5)
    client = kv.add_client("c1", pmap, workload, n_threads=4)
    cluster.run(until=2.0)
    assert client.completed > 50
    assert client.timeouts == 0
    # Both replicas applied the same writes.
    r1, r2 = cluster.replicas["r1"], cluster.replicas["r2"]
    assert list(r1.store.keys()) == list(r2.store.keys())


def test_client_latency_recorded():
    pmap = single_partition_map()
    cluster, kv = small_cluster(pmap)
    kv.add_replica("r1", "g1", ["S1"], pmap)
    kv.add_replica("r2", "g2", ["S1"], pmap)
    client = kv.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=10, value_size=64), n_threads=2
    )
    cluster.run(until=1.0)
    assert len(client.latency) == client.completed
    assert client.latency.percentile(95) < 0.1


def test_replica_cpu_capacity_limits_throughput():
    pmap = single_partition_map(replicas=("r1",))
    cluster, kv = small_cluster(pmap)
    kv.add_replica("r1", "g1", ["S1"], pmap, cpu_rate=100.0)
    client = kv.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=100, value_size=64), n_threads=20
    )
    cluster.run(until=3.0)
    rate = client.ops.rate_between(1.0, 3.0)
    assert 60 <= rate <= 130   # saturates near the 100 ops/s CPU


def test_getrange_spans_partitions_consistently():
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SHARED",
    )
    cluster = MulticastCluster(
        seed=9, link_latency=0.0005, lam=500, delta_t=0.05
    )
    kv = KvCluster(cluster)
    for stream in ("S1", "S2", "SHARED"):
        cluster.add_stream(stream)
    kv.add_replica("r1", "g1", ["S1", "SHARED"], pmap)
    kv.add_replica("r2", "g2", ["S2", "SHARED"], pmap)
    kv.publish_map(pmap)
    # Seed some keys, then issue ranges.
    seed_workload = KeyspaceWorkload(n_keys=30, value_size=64, put_fraction=1.0)
    client = kv.add_client("seeder", pmap, seed_workload, n_threads=5)
    cluster.run(until=2.0)
    client.stop_workers()

    range_client = kv.add_client(
        "ranger",
        pmap,
        KeyspaceWorkload(n_keys=30, put_fraction=0.0, range_fraction=1.0,
                         range_span=30),
        n_threads=1,
    )
    cluster.run(until=4.0)
    assert range_client.completed > 0
    assert range_client.timeouts == 0


def test_split_repartitions_without_interruption():
    """The Fig. 4 scenario at test scale."""
    pmap = single_partition_map(replicas=("r1", "r2"))
    cluster, kv = small_cluster(pmap)
    cluster.add_stream("S2")
    r1 = kv.add_replica("r1", "shard-a", ["S1"], pmap)
    r2 = kv.add_replica("r2", "shard-b", ["S1"], pmap)
    kv.publish_map(pmap)
    workload = KeyspaceWorkload(n_keys=200, value_size=64)
    client = kv.add_client("c1", pmap, workload, n_threads=10, timeout=0.5)
    cluster.run(until=1.0)

    maps = []
    kv.orchestrator.split(
        old_map=pmap,
        split_index=0,
        moving_group="shard-b",
        moving_replicas=("r2",),
        new_stream="S2",
        settle_delay=0.5,
        on_done=maps.append,
    )
    cluster.run(until=6.0)
    [new_map] = maps
    assert new_map.n_partitions == 2

    # Subscriptions converged: r1 only on S1, r2 only on S2.
    assert r1.subscriptions == ("S1",)
    assert r2.subscriptions == ("S2",)
    # Each replica now holds only the keys its shard owns.
    for key in r1.store.keys():
        assert new_map.owns("r1", key)
    for key in r2.store.keys():
        assert new_map.owns("r2", key)
    # Traffic continued after the split.
    post_rate = client.ops.rate_between(5.0, 6.0)
    assert post_rate > 0
    # Clients saw at most a brief timeout-driven gap.
    assert client.timeouts < client.completed


def test_merge_transfers_state_back():
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
    )
    cluster = MulticastCluster(
        seed=11, link_latency=0.0005, lam=500, delta_t=0.05
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    cluster.add_stream("S2")
    r1 = kv.add_replica("r1", "shard-a", ["S1"], pmap)
    r2 = kv.add_replica("r2", "shard-b", ["S2"], pmap)
    kv.publish_map(pmap)
    client = kv.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=100, value_size=64), n_threads=5,
        timeout=0.5,
    )
    cluster.run(until=1.5)
    client.stop_workers()
    keys_before = set(r1.store.keys()) | set(r2.store.keys())

    maps = []
    kv.orchestrator.merge(
        old_map=pmap,
        doomed_index=1,
        into_index=0,
        absorbing_group="shard-a",
        settle_delay=0.5,
        on_done=maps.append,
    )
    cluster.run(until=6.0)
    [new_map] = maps
    assert new_map.n_partitions == 1
    # r1 absorbed everything, including r2's rows via state transfer.
    assert set(r1.store.keys()) == keys_before
    # The doomed stream was unsubscribed once the merge completed.
    assert r1.subscriptions == ("S1",)


def test_misdirected_commands_are_discarded_and_retried():
    pmap = single_partition_map(replicas=("r1",))
    cluster, kv = small_cluster(pmap)
    kv.add_replica("r1", "g1", ["S1"], pmap)
    # Client believes in a stale 2-partition map routing some keys to a
    # stream whose replica does not own them.
    cluster.add_stream("S2")
    kv.add_replica("r2", "g2", ["S2"], pmap)  # owns nothing extra
    stale_map = PartitionMap(
        version=99,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
    )
    client = kv.add_client(
        "c1",
        stale_map,
        KeyspaceWorkload(n_keys=40, value_size=64),
        n_threads=4,
        timeout=0.3,
    )
    # Publish the true map so the watch corrects the client.
    kv.publish_map(pmap)
    cluster.run(until=3.0)
    # After the watch update all commands route to S1 and complete.
    assert client.completed > 0
    assert client.partition_map.version == pmap.version
