"""Cross-shard bank transfers: atomicity from ordering alone.

Accounts are hash-sharded over two partitions.  A transfer between
accounts on *different* shards is a one-shot transaction multicast to
the shared stream: both shards deliver it at the same merged position,
apply their half, and exchange execution signals before replying.
No locks, no two-phase commit -- the atomic multicast already ordered
the transfer against every conflicting operation (the S-SMR/Calvin
design the paper's introduction motivates).

An auditor thread keeps reading all balances with a consistent
cross-shard transaction: the total is conserved in every snapshot even
while transfers are in full flight.

Run:  python examples/bank_transfers.py
"""

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.workload.generators import KeyspaceWorkload

N_ACCOUNTS = 20
INITIAL_BALANCE = 1_000


def main():
    cluster = MulticastCluster(
        seed=17, link_latency=0.0005, lam=1000, delta_t=0.02
    )
    kv = KvCluster(cluster)
    for stream in ("S1", "S2", "SHARED"):
        cluster.add_stream(stream)
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SHARED",
    )
    kv.add_replica("r1", "g1", ["S1", "SHARED"], pmap)
    kv.add_replica("r2", "g2", ["S2", "SHARED"], pmap)
    kv.publish_map(pmap)
    client = kv.add_client(
        "bank", pmap, KeyspaceWorkload(n_keys=10), n_threads=0, timeout=1.0
    )
    env = cluster.env
    accounts = [f"acct-{i:04d}" for i in range(N_ACCOUNTS)]
    cross_shard = len({pmap.partition_of(a).index for a in accounts})
    print(f"{N_ACCOUNTS} accounts over {cross_shard} shards")

    # Each teller and the auditor is a chain of callbacks: a command's
    # completion callback issues the next one.
    for account in accounts:
        client.execute(
            ("txn", ((account, "put", INITIAL_BALANCE),)), lambda _results: None
        )
    cluster.run(until=1.0)

    rng = cluster.rng.stream("bank")
    stats = {"transfers": 0, "cross_shard": 0}

    def transfer():
        src, dst = rng.sample(accounts, 2)
        amount = rng.randrange(1, 100)

        def transferred(_results):
            stats["transfers"] += 1
            if pmap.partition_of(src).index != pmap.partition_of(dst).index:
                stats["cross_shard"] += 1
            transfer()

        client.execute(
            ("txn", ((src, "add", -amount), (dst, "add", amount))), transferred
        )

    for _ in range(5):
        env.call_later(0.0, transfer)

    audits = []
    read_ops = tuple((account, "read", None) for account in accounts)

    def audited(results):
        balances = {}
        for partial in results:
            balances.update(partial)
        total = sum(balances.values())
        audits.append(total)
        marker = "OK" if total == N_ACCOUNTS * INITIAL_BALANCE else "BROKEN!"
        print(f"  t={env.now:5.2f}s  audit total = {total}  [{marker}]  "
              f"({stats['transfers']} transfers so far, "
              f"{stats['cross_shard']} cross-shard)")
        env.call_later(1.0, client.execute, ("txn", read_ops), audited)

    env.call_later(1.0, client.execute, ("txn", read_ops), audited)
    cluster.run(until=8.0)

    expected = N_ACCOUNTS * INITIAL_BALANCE
    assert all(total == expected for total in audits), "invariant violated!"
    print(f"\n{stats['transfers']} transfers "
          f"({stats['cross_shard']} cross-shard), {len(audits)} audits, "
          "money conserved in every snapshot ✓")


if __name__ == "__main__":
    main()
