"""Unit-level tests of KvReplica semantics, driven without a network
round trip where possible."""

import pytest

from repro.harness.cluster import MulticastCluster
from repro.kvstore.repartition import KvCluster
from repro.kvstore.commands import (
    DeleteCmd,
    GetCmd,
    MapChangeCmd,
    PutCmd,
    RangeCmd,
    SignalMsg,
    StateTransferRequest,
)
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.paxos.types import AppValue
from repro.workload.generators import key_name


def one_partition_map(replicas=("r1",)):
    return PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=tuple(replicas)),),
    )


def make_replica(pmap, name="r1", group="g1", streams=("S1",)):
    cluster = MulticastCluster(
        seed=51, link_latency=0.0005, lam=500, delta_t=0.05
    )
    kv = KvCluster(cluster)
    for stream in {p.stream for p in pmap.partitions} | set(streams):
        if stream not in cluster.directory:
            cluster.add_stream(stream)
    replica = kv.add_replica(name, group, list(streams), pmap)
    # Targets the replica replies/signals to in these unit tests.
    for host in ("c", "r2", "r9", "other"):
        cluster.network.add_host(host)
    return cluster, replica


def apply_cmd(replica, command, stream="S1"):
    replica.apply(AppValue(payload=command, size=64), stream, 0)


def test_put_then_get_through_apply():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    key = key_name(1)
    apply_cmd(replica, PutCmd(key=key, value="v", value_size=1, client="c"))
    apply_cmd(replica, GetCmd(key=key, client="c"))
    cluster.run(until=0.1)
    assert replica.store.get(key) == "v"
    assert replica.executed == 2


def test_delete_removes_key_and_reports_existence():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    key = key_name(2)
    apply_cmd(replica, PutCmd(key=key, value="v", value_size=1, client="c"))
    apply_cmd(replica, DeleteCmd(key=key, client="c"))
    assert key not in replica.store
    # Deleting again is executed (idempotent at the store level).
    apply_cmd(replica, DeleteCmd(key=key, client="c"))
    assert replica.executed == 3


def test_misdirected_delete_discarded():
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("other",)),
        ),
    )
    cluster, replica = make_replica(pmap)
    foreign = next(
        key_name(i) for i in range(100) if pmap.partition_of(key_name(i)).index == 1
    )
    apply_cmd(replica, DeleteCmd(key=foreign, client="c"))
    assert replica.discarded_misdirected == 1


def test_misdirected_command_discarded_silently():
    # r1 owns partition 0 of a 2-partition map; keys hashing to 1 are
    # not its business even if they arrive on its stream.
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("other",)),
        ),
    )
    cluster, replica = make_replica(pmap)
    foreign = next(
        key_name(i) for i in range(100) if pmap.partition_of(key_name(i)).index == 1
    )
    apply_cmd(replica, PutCmd(key=foreign, value="v", value_size=1, client="c"))
    assert replica.discarded_misdirected == 1
    assert replica.executed == 0
    assert foreign not in replica.store


def test_map_change_is_versioned_idempotent():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    newer = PartitionMap(
        version=2,
        partitions=(Partition(index=0, stream="S1", replicas=("r1",)),),
    )
    apply_cmd(replica, MapChangeCmd(new_map=newer))
    assert replica.partition_map.version == 2
    stale = PartitionMap(
        version=1,
        partitions=(Partition(index=0, stream="S1", replicas=("somebody",)),),
    )
    apply_cmd(replica, MapChangeCmd(new_map=stale))
    assert replica.partition_map.version == 2   # stale copy ignored


def test_map_change_hands_off_dropped_rows():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    for i in range(20):
        apply_cmd(replica, PutCmd(key=key_name(i), value=i, value_size=1, client="c"))
    # New map: two partitions; r1 keeps only partition 0's keys.
    new_map = PartitionMap(
        version=1,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
    )
    before = len(replica.store)
    apply_cmd(replica, MapChangeCmd(new_map=new_map))
    handed_off = replica._handoff[1]
    assert len(replica.store) + len(handed_off) == before
    for key, _value in handed_off:
        assert new_map.partition_of(key).index == 1


def test_state_transfer_request_waits_for_map_install():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    # A transfer request for a map we have not installed yet queues up.
    replica.on_state_transfer_request(
        StateTransferRequest(version=5, requester="r9"), "r9"
    )
    assert replica._waiting_transfers == {5: ["r9"]}


def test_range_on_single_partition_replies_without_signals():
    pmap = one_partition_map()
    cluster, replica = make_replica(pmap)
    for i in range(10):
        apply_cmd(replica, PutCmd(key=key_name(i), value=i, value_size=1, client="c"))
    apply_cmd(replica, RangeCmd(start=key_name(0), end=key_name(5), client="c"))
    assert not replica._pending_ranges   # replied immediately


def test_range_waits_for_other_partitions_signal():
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SH",
    )
    cluster, replica = make_replica(pmap, streams=("S1",))
    command = RangeCmd(start=key_name(0), end=key_name(5), client="c")
    apply_cmd(replica, command)
    assert command.cmd_id in replica._pending_ranges
    replica.on_signal_msg(
        SignalMsg(cmd_id=command.cmd_id, partition=1, replica="r2"), "r2"
    )
    assert command.cmd_id not in replica._pending_ranges


def test_early_signal_before_local_delivery_is_buffered():
    pmap = PartitionMap(
        version=0,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SH",
    )
    cluster, replica = make_replica(pmap, streams=("S1",))
    command = RangeCmd(start=key_name(0), end=key_name(5), client="c")
    replica.on_signal_msg(
        SignalMsg(cmd_id=command.cmd_id, partition=1, replica="r2"), "r2"
    )
    apply_cmd(replica, command)
    # The buffered signal satisfied the wait at delivery time.
    assert command.cmd_id not in replica._pending_ranges
