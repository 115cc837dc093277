"""One-shot multi-partition transactions: atomicity & linearizability."""

import pytest

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.workload.generators import KeyspaceWorkload, key_name


def two_shard_world(seed=91):
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SH",
    )
    cluster = MulticastCluster(
        seed=seed, link_latency=0.0005, lam=1000, delta_t=0.02
    )
    kv = KvCluster(cluster)
    for stream in ("S1", "S2", "SH"):
        cluster.add_stream(stream)
    r1 = kv.add_replica("r1", "g1", ["S1", "SH"], pmap)
    r2 = kv.add_replica("r2", "g2", ["S2", "SH"], pmap)
    kv.publish_map(pmap)
    client = kv.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=100), n_threads=0, timeout=1.0
    )
    return cluster, pmap, r1, r2, client


def keys_per_partition(pmap, count=4):
    """First ``count`` keyspace keys owned by each partition."""
    buckets = {p.index: [] for p in pmap.partitions}
    i = 0
    while any(len(b) < count for b in buckets.values()):
        key = key_name(i)
        bucket = buckets[pmap.partition_of(key).index]
        if len(bucket) < count:
            bucket.append(key)
        i += 1
    return buckets


def run_one(cluster, client, spec, until):
    done = []
    client.execute(spec, done.append)
    cluster.run(until=until)
    assert done, "command did not complete"
    return done[0]


def test_single_partition_txn_routes_to_partition_stream():
    cluster, pmap, r1, r2, client = two_shard_world()
    buckets = keys_per_partition(pmap)
    k0, k1 = buckets[0][0], buckets[0][1]
    results = run_one(
        cluster, client,
        ("txn", ((k0, "put", "x"), (k1, "put", "y"), (k0, "read", None))),
        until=1.0,
    )
    assert len(results) == 1          # one partition replied
    assert results[0][k0] == "x"
    assert r1.store.get(k1) == "y"
    assert k0 not in r2.store


def test_cross_partition_txn_applies_on_both_shards():
    cluster, pmap, r1, r2, client = two_shard_world()
    buckets = keys_per_partition(pmap)
    a, b = buckets[0][0], buckets[1][0]
    results = run_one(
        cluster, client,
        ("txn", ((a, "put", 1), (b, "put", 2), (a, "read", None), (b, "read", None))),
        until=1.0,
    )
    assert len(results) == 2          # both partitions replied
    merged = {}
    for partial in results:
        merged.update(partial)
    assert merged == {a: 1, b: 2}
    assert r1.store.get(a) == 1
    assert r2.store.get(b) == 2


def test_add_op_increments_numerically():
    cluster, pmap, r1, r2, client = two_shard_world()
    buckets = keys_per_partition(pmap)
    key = buckets[0][0]
    run_one(cluster, client, ("txn", ((key, "add", 10),)), until=1.0)
    results = run_one(cluster, client, ("txn", ((key, "add", -3),)), until=2.0)
    assert results[0][key] == 7
    assert r1.store.get(key) == 7


def test_concurrent_transfers_preserve_total_balance():
    """The bank invariant: transfers between accounts on different
    shards never create or destroy money."""
    cluster, pmap, r1, r2, client = two_shard_world()
    buckets = keys_per_partition(pmap, count=3)
    accounts = buckets[0][:3] + buckets[1][:3]
    env = cluster.env

    # Seed every account with 100.
    for account in accounts:
        client.execute(("txn", ((account, "put", 100),)), lambda _r: None)
    cluster.run(until=1.0)

    rng = cluster.rng.stream("transfers")

    def transfer(remaining):
        if remaining:
            src, dst = rng.sample(accounts, 2)
            amount = rng.randrange(1, 20)
            client.execute(
                ("txn", ((src, "add", -amount), (dst, "add", amount))),
                lambda _results: transfer(remaining - 1),
            )

    for _ in range(4):
        env.call_later(0.0, transfer, 15)
    cluster.run(until=8.0)

    # Audit with a consistent cross-shard read.
    read_ops = tuple((account, "read", None) for account in accounts)
    results = run_one(cluster, client, ("txn", read_ops), until=9.0)
    balances = {}
    for partial in results:
        balances.update(partial)
    assert sum(balances.values()) == 100 * len(accounts)
    # Both replicas' stores agree with the audited snapshot.
    for account in accounts:
        owner = r1 if pmap.partition_of(account).index == 0 else r2
        assert owner.store.get(account) == balances[account]


def test_consistent_audit_during_transfers():
    """Audits interleaved with transfers always see a conserved total
    (linearizable cross-shard reads)."""
    cluster, pmap, r1, r2, client = two_shard_world(seed=93)
    buckets = keys_per_partition(pmap, count=2)
    accounts = buckets[0][:2] + buckets[1][:2]
    env = cluster.env
    for account in accounts:
        client.execute(("txn", ((account, "put", 50),)), lambda _r: None)
    cluster.run(until=1.0)

    rng = cluster.rng.stream("t2")
    read_ops = tuple((account, "read", None) for account in accounts)
    totals = []

    def churn(_results=None):
        if len(totals) < 10:
            src, dst = rng.sample(accounts, 2)
            client.execute(("txn", ((src, "add", -5), (dst, "add", 5))), churn)

    def audit(results=None):
        if results is not None:
            merged = {}
            for partial in results:
                merged.update(partial)
            totals.append(sum(merged.values()))
        if len(totals) < 10:
            client.execute(("txn", read_ops), audit)

    env.call_later(0.0, churn)
    env.call_later(0.0, audit)
    cluster.run(until=10.0)
    assert len(totals) == 10
    assert all(total == 200 for total in totals), totals
