"""Unit tests for hash partitioning and the partition map."""

import pytest

from repro.kvstore.partitioning import (
    Partition,
    PartitionMap,
    partition_index_of,
)
from repro.workload.generators import key_name


def two_partition_map():
    return PartitionMap(
        version=1,
        partitions=(
            Partition(index=0, stream="S1", replicas=("r1",)),
            Partition(index=1, stream="S2", replicas=("r2",)),
        ),
        shared_stream="SHARED",
    )


def test_partition_index_is_deterministic():
    assert partition_index_of("abc", 4) == partition_index_of("abc", 4)


def test_partition_index_range():
    for i in range(100):
        assert 0 <= partition_index_of(key_name(i), 3) < 3


def test_split_moves_roughly_half_the_keys():
    moved = sum(
        1
        for i in range(10_000)
        if partition_index_of(key_name(i), 1) != partition_index_of(key_name(i), 2)
    )
    assert 4_000 < moved < 6_000


def test_partition_of_routes_by_hash():
    pmap = two_partition_map()
    for i in range(50):
        key = key_name(i)
        expected = partition_index_of(key, 2)
        assert pmap.partition_of(key).index == expected


def test_owns_respects_replica_membership():
    pmap = two_partition_map()
    key0 = next(k for k in (key_name(i) for i in range(100))
                if partition_index_of(k, 2) == 0)
    assert pmap.owns("r1", key0)
    assert not pmap.owns("r2", key0)


def test_partition_of_replica():
    pmap = two_partition_map()
    assert pmap.partition_of_replica("r2").index == 1
    assert pmap.partition_of_replica("nobody") is None


def test_map_validates_partition_indices():
    with pytest.raises(ValueError):
        PartitionMap(
            version=0,
            partitions=(Partition(index=1, stream="S", replicas=("r",)),),
        )


def test_zero_partitions_rejected_by_hash():
    with pytest.raises(ValueError):
        partition_index_of("k", 0)
