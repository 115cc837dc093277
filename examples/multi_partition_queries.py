"""The Figure 1 store: single- and multi-partition operations.

Two shards (G1 on stream S1, G2 on stream S3 in the paper's naming),
plus a shared stream every replica subscribes to.  Single-key get/put
commands are multicast to the owning shard's stream; consistent
``getrange`` queries are multicast to the shared stream, executed by
every shard at the same merged position, coordinated with direct signal
messages, and assembled at the client.

Run:  python examples/multi_partition_queries.py
"""

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.workload.generators import KeyspaceWorkload, key_name


def main():
    cluster = MulticastCluster(
        seed=5, link_latency=0.0005, lam=1000, delta_t=0.02
    )
    kv = KvCluster(cluster)
    for stream in ("S1", "S3", "SHARED"):
        cluster.add_stream(stream)

    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("g1-r1", "g1-r2")),
            Partition(index=1, stream="S3", replicas=("g2-r1", "g2-r2")),
        ),
        shared_stream="SHARED",
    )
    replicas = {}
    for partition in pmap.partitions:
        for name in partition.replicas:
            group = name.split("-")[0]
            replicas[name] = kv.add_replica(
                name, f"group-{name}", [partition.stream, "SHARED"], pmap
            )
    kv.publish_map(pmap)

    print("phase 1: load 2000 keys through single-partition puts")
    seeder = kv.add_client(
        "seeder", pmap,
        KeyspaceWorkload(n_keys=2_000, value_size=256, put_fraction=1.0),
        n_threads=20,
    )
    cluster.run(until=4.0)
    seeder.stop_workers()
    for name, replica in sorted(replicas.items()):
        print(f"  {name}: {len(replica.store)} keys "
              f"(shard {replica.partition_index})")

    print("\nphase 2: consistent getrange across both shards")
    ranger = kv.add_client(
        "ranger", pmap,
        KeyspaceWorkload(n_keys=2_000, put_fraction=0.0, range_fraction=1.0,
                         range_span=200),
        n_threads=2,
    )
    cluster.run(until=7.0)
    ranger.stop_workers()
    print(f"  completed {ranger.completed} range queries, "
          f"{ranger.timeouts} timeouts")
    print(f"  p95 latency: {ranger.latency.percentile(95) * 1000:.1f} ms "
          "(one merged delivery + signal exchange)")

    print("\nphase 3: mixed workload (70% put / 25% get / 5% range)")
    mixed = kv.add_client(
        "mixed", pmap,
        KeyspaceWorkload(n_keys=2_000, value_size=256, put_fraction=0.70,
                         range_fraction=0.05, range_span=50),
        n_threads=20,
    )
    cluster.run(until=11.0)
    rate = mixed.ops.rate_between(8.0, 11.0)
    print(f"  {mixed.completed} ops, {rate:.0f} ops/s steady, "
          f"p95 {mixed.latency.percentile(95) * 1000:.1f} ms")
    print("\nEvery range result is a consistent cut: each shard executed the")
    print("query at the same merged position and signalled the others before")
    print("replying (S-SMR-style execution signals, paper §VI).")


if __name__ == "__main__":
    main()
