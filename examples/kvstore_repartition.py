"""Splitting a partitioned key/value store without stopping it (Fig. 4).

One shard served by two replicas splits into two shards of one replica
each, under load: the moving replica subscribes to a fresh stream, the
new partition map is ordered like any other command, clients re-route
after a registry notification, and each replica ends up serving (and
storing) only half the keyspace.

Run:  python examples/kvstore_repartition.py
"""

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.workload.generators import KeyspaceWorkload


def main():
    cluster = MulticastCluster(
        seed=7, link_latency=0.0005, lam=1000, delta_t=0.05
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    cluster.add_stream("S2")

    initial_map = PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=("r1", "r2")),),
    )
    r1 = kv.add_replica("r1", "shard-a", ["S1"], initial_map, cpu_rate=2000)
    r2 = kv.add_replica("r2", "shard-b", ["S1"], initial_map, cpu_rate=2000)
    kv.publish_map(initial_map)

    client = kv.add_client(
        "client",
        initial_map,
        KeyspaceWorkload(n_keys=5_000, value_size=1024),
        n_threads=30,
        timeout=0.5,
        think_time=0.02,
    )

    print("phase 1: one partition, both replicas replicate every key")
    cluster.run(until=5.0)
    print(f"  r1 holds {len(r1.store)} keys, r2 holds {len(r2.store)} keys")
    print(f"  client completed {client.completed} ops")

    print("\nphase 2: split partition 0 -> (0: r1 on S1, 1: r2 on S2)")
    maps = []
    kv.orchestrator.split(
        old_map=initial_map,
        split_index=0,
        moving_group="shard-b",
        moving_replicas=("r2",),
        new_stream="S2",
        settle_delay=1.0,
        on_done=maps.append,
    )
    cluster.run(until=12.0)
    [new_map] = maps
    print(f"  new map version {new_map.version} with "
          f"{new_map.n_partitions} partitions")
    print(f"  r1 subscriptions: {r1.subscriptions}   "
          f"r2 subscriptions: {r2.subscriptions}")
    print(f"  r1 holds {len(r1.store)} keys, r2 holds {len(r2.store)} keys "
          "(disjoint halves)")
    print(f"  client timeouts during the switch: {client.timeouts} "
          "(commands that reached the wrong shard were discarded and resent)")

    before = client.ops.rate_between(2.0, 5.0)
    after = client.ops.rate_between(9.0, 12.0)
    print(f"\n  aggregate throughput: {before:.0f} ops/s before, "
          f"{after:.0f} ops/s after (uninterrupted)")
    r1_after = r1.applied_ops.rate_between(9.0, 12.0)
    r2_after = r2.applied_ops.rate_between(9.0, 12.0)
    print(f"  per-replica load after: r1={r1_after:.0f}, r2={r2_after:.0f} "
          "(each ~half: capacity doubled)")


if __name__ == "__main__":
    main()
