"""Replica crash/recovery: checkpoint, replay, re-learned subscriptions."""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import ScenarioSpec, sim_topology
from repro.faults.schedule import CrashAt, RecoverAt, Schedule
from repro.harness.cluster import MulticastCluster
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.kvstore.repartition import KvCluster
from repro.storage.checkpoint import CheckpointStore
from repro.workload.generators import KeyspaceWorkload


def _checkpoint_crash_recover(make_cluster, ready, prepare=False):
    """G = {r1, r2} on S1 subscribes to S2 via S1 at t=0.6 (after a
    ``prepare_msg`` at 0.3 if ``prepare``).  A burst of S2 values at 0.2
    puts S2's positions far ahead of S1's, so the merge point lies well
    past S1's cursor and aligning S1 takes a while.  At the first
    millisecond step where ``ready(r1's merger state)``, checkpoint r1
    and crash it there; recover it from that checkpoint 0.2 s later.
    r1 must then deliver exactly what r2, which never crashed,
    delivers."""
    cluster = make_cluster(["S1", "S2"], seed=31)
    r1 = cluster.add_replica("r1", "G", ["S1"])
    r2 = cluster.add_replica("r2", "G", ["S1"])
    env, client = cluster.env, cluster.client
    for i in range(150):
        env.call_at(i * 0.01, client.multicast, "S1", ("s1", i))
        env.call_at(i * 0.01, client.multicast, "S2", ("s2", i))
    for i in range(400):
        env.call_at(0.2, client.multicast, "S2", ("burst", i))
    if prepare:
        env.call_at(0.3, client.prepare_msg, "G", "S2", "S1")
    env.call_at(0.6, client.subscribe_msg, "G", "S2", "S1")
    now = 0.0
    while not ready(r1.merger.state()):
        now += 0.001
        assert now < 2.0, "the merger never reached the state to cut"
        cluster.run(until=now)
    checkpoint = r1.make_checkpoint()
    r1.crash()
    cluster.run(until=now + 0.2)
    r1.recover_from_checkpoint(checkpoint)
    cluster.run(until=4.0)
    assert r1.subscriptions == r2.subscriptions == ("S1", "S2")
    streams = [stream for _payload, stream in cluster.delivered["r2"]]
    assert streams.count("S1") == 150 and "S2" in streams
    assert cluster.delivered["r1"] == cluster.delivered["r2"]


def test_checkpoint_while_the_new_stream_is_scanned(make_cluster):
    _checkpoint_crash_recover(
        make_cluster,
        lambda state: state.pending is not None
        and state.pending.phase == "scanning",
    )


def test_checkpoint_while_the_old_streams_align(make_cluster):
    _checkpoint_crash_recover(
        make_cluster,
        lambda state: state.pending is not None
        and state.pending.phase == "aligning",
    )


def test_checkpoint_between_prepare_and_subscribe(make_cluster):
    # The prepared cursor is part of the state: the recovered replica
    # resumes the background learner prepare_msg started.
    _checkpoint_crash_recover(
        make_cluster,
        lambda state: state.pending is None
        and "S2" in dict(state.positions),
        prepare=True,
    )


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
    cluster = MulticastCluster(
        seed=33, link_latency=0.0005, lam=500, delta_t=0.05
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    r1 = kv.add_replica("r1", "g1", ["S1"], pmap)
    r2 = kv.add_replica("r2", "g2", ["S1"], pmap)
    kv.publish_map(pmap)
    client = kv.add_client(
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


def test_checkpoint_right_after_a_recovery_keeps_the_replay_instance():
    """Crash, recover, checkpoint, crash, recover.  G1/r1 recovers at
    1.4995, half a millisecond before the 1.5 checkpoint tick, so that
    checkpoint is cut before any re-fetched batch reaches its logs: the
    replay point must be the (instance, position) pair the logs were
    seeded at.  Were it instance 0 at the later base, the second
    recovery would replay the stream's first values at its current
    positions and break stream agreement."""
    schedule = Schedule(
        name="crash-recover-twice",
        actions=(
            CrashAt(at=1.0, target="G1/r1"),
            RecoverAt(at=1.4995, target="G1/r1"),
            CrashAt(at=1.6, target="G1/r1"),
            RecoverAt(at=1.8, target="G1/r1"),
        ),
    )
    spec = ScenarioSpec(
        name="crash-recover-twice",
        description="a checkpoint cut right after a recovery, then "
                    "recovered from",
        topology=sim_topology(("S1", "S2"), {"G1": ("S1", "S2")}),
        duration=3.0,
        schedule=lambda _seed: schedule,
        load_rate=80.0,
    )
    runner = ScenarioRunner(spec, seed=1)
    runner.run()   # raises InvariantViolation on any breach
    assert runner.suite.logs["G1/r1"].rewinds == 2


def test_recovery_from_a_checkpoint_cut_after_the_log_compacted():
    """A replica's token log drops what its merger has read.  G1/r1 is
    checkpointed every 0.25 s; the 1.5 checkpoint is cut after its S1
    log released a prefix, and it crashes at 1.6 and recovers from that
    checkpoint at 1.8.  Its learner re-fetches from the checkpoint's
    replay point -- a batch boundary the compacted log kept -- and r1
    then delivers the suffix G1/r2, which never crashed, delivers."""
    schedule = Schedule(
        name="crash-after-compaction",
        actions=(
            CrashAt(at=1.6, target="G1/r1"),
            RecoverAt(at=1.8, target="G1/r1"),
        ),
    )
    spec = ScenarioSpec(
        name="crash-after-compaction",
        description="a checkpoint cut after the token log compacted, "
                    "then recovered from",
        topology=sim_topology(("S1",), {"G1": ("S1",)}),
        duration=3.0,
        schedule=lambda _seed: schedule,
    )
    runner = ScenarioRunner(spec, seed=1)
    r1 = runner.cluster.replicas["G1/r1"]
    cut = r1.make_checkpoint
    cuts = []   # (time, log released a prefix, suite mark) per checkpoint

    def make_checkpoint():
        log = r1.logs["S1"]
        cuts.append((
            r1.env.now, log.horizon > log.base, runner.suite.mark("G1/r1"),
        ))
        return cut()

    r1.make_checkpoint = make_checkpoint
    runner.run()   # raises InvariantViolation on any breach

    at, compacted, mark = [c for c in cuts if c[0] < 1.6][-1]
    assert at == 1.5 and compacted
    recovered, survivor = runner.suite.logs["G1/r1"], runner.suite.logs["G1/r2"]
    assert recovered.rewinds == 1
    assert recovered.sequence()[mark:] == survivor.sequence()[mark:]
    assert len(recovered.sequence()) > mark
    # The recovered log, seeded at the replay point, compacts in turn.
    log = r1.logs["S1"]
    assert log.horizon > log.base
