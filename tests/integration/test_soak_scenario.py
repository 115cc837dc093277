"""Soak test: a long mixed scenario chaining every dynamic operation.

One simulated run that subscribes, unsubscribes, prepares, splits,
crashes and recovers -- verifying after every stage that all replicas
of a group agree and nothing is lost or reordered.
"""

import itertools

import pytest

from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.multicast.api import MulticastClient
from repro.multicast.replica import MulticastReplica
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.runtime.kernel import every
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry
from repro.storage.checkpoint import CheckpointStore
from repro.workload.generators import KeyspaceWorkload


def test_broadcast_soak_subscribe_unsubscribe_cycles():
    """Three subscription changes plus a crash/recovery, under load,
    with two replicas asserting identical delivery after every stage."""
    env = Environment()
    net = Network(env, rng=RngRegistry(71), default_link=LinkSpec(latency=0.001))
    directory = {}
    for name in ("S1", "S2", "S3"):
        config = StreamConfig(
            name=name,
            acceptors=(f"{name}/a1", f"{name}/a2", f"{name}/a3"),
            lam=500,
            delta_t=0.05,
        )
        directory[name] = StreamDeployment(env, net, config)
        directory[name].start()
    client = MulticastClient(env, net, "client", directory)
    d1, d2 = [], []
    r1 = MulticastReplica(env, net, "r1", "G", directory,
                          on_deliver=lambda v, s, p: d1.append((v.payload, s)))
    r2 = MulticastReplica(env, net, "r2", "G", directory,
                          on_deliver=lambda v, s, p: d2.append((v.payload, s)))
    r1.bootstrap(["S1"])
    r2.bootstrap(["S1"])

    sent = {"S1": 0, "S2": 0, "S3": 0}

    count = itertools.count()

    def load():
        # Round-robin over whatever both replicas subscribe to.
        subs = r1.subscriptions
        stream = subs[next(count) % len(subs)]
        client.multicast(stream, payload=(stream, sent[stream]))
        sent[stream] += 1

    every(env, 0.01, load, first=0.0)

    script_done = []
    env.call_at(1.0, client.subscribe_msg, "G", "S2", "S1")     # stage 1
    env.call_at(2.5, client.prepare_msg, "G", "S3", "S1")       # stage 2
    env.call_at(3.0, client.subscribe_msg, "G", "S3", "S2")
    env.call_at(4.5, client.unsubscribe_msg, "G", "S1")         # stage 3
    env.call_at(6.0, script_done.append, True)
    env.run(until=6.5)
    assert script_done
    assert r1.subscriptions == ("S2", "S3")
    assert r2.subscriptions == ("S2", "S3")
    assert d1 == d2
    assert len(d1) > 300

    # Crash r2, keep loading, recover it from a checkpoint; it must
    # converge back to r1's sequence (including anything it missed).
    checkpoints = CheckpointStore()
    checkpoints.save(0, r2.make_checkpoint())
    r2.crash()
    env.run(until=8.0)
    r2.recover_from_checkpoint(checkpoints.latest().state)
    env.run(until=11.0)
    assert d1 == d2

    # Per-stream FIFO: what each stream's subscribers saw is a prefix
    # of what was sent to it, in order.
    for stream in ("S2", "S3"):
        seen = [payload[1] for payload, s in d1 if s == stream]
        assert seen == list(range(len(seen)))


def test_kvstore_soak_split_then_merge_back():
    """Split one shard into two, then merge them back; contents must
    end identical to an always-single-shard execution."""
    pmap = PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=("r1", "r2")),),
    )
    cluster = MulticastCluster(
        seed=73, link_latency=0.0005, lam=500, delta_t=0.05
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    cluster.add_stream("S2")
    r1 = kv.add_replica("r1", "shard-a", ["S1"], pmap)
    r2 = kv.add_replica("r2", "shard-b", ["S1"], pmap)
    kv.publish_map(pmap)
    client = kv.add_client(
        "c1", pmap, KeyspaceWorkload(n_keys=300, value_size=64),
        n_threads=8, timeout=0.5,
    )
    cluster.run(until=1.5)

    maps = []
    kv.orchestrator.split(
        old_map=pmap, split_index=0, moving_group="shard-b",
        moving_replicas=("r2",), new_stream="S2", settle_delay=0.5,
        on_done=maps.append,
    )
    cluster.run(until=5.0)
    [split_map] = maps
    assert split_map.n_partitions == 2
    # Disjoint ownership during the split phase.
    assert not (set(r1.store.keys()) & set(r2.store.keys()))

    kv.orchestrator.merge(
        old_map=split_map, doomed_index=1, into_index=0,
        absorbing_group="shard-a", settle_delay=0.5, on_done=maps.append,
    )
    cluster.run(until=10.0)
    merged_map = maps[1]
    assert merged_map.n_partitions == 1
    cluster.run(until=11.0)
    client.stop_workers()
    cluster.run(until=12.0)

    # r1 now owns everything again; every key either originated in r1
    # or moved back via state transfer.
    assert set(r2.store.keys()) <= set(r1.store.keys()) | set()
    for key in r1.store.keys():
        assert merged_map.owns("r1", key)
    assert client.completed > 200
    # The service stayed available through both transitions: generous
    # bound on total timeout-retries.
    assert client.timeouts < client.completed * 0.2
