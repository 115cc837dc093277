"""Re-partitioning orchestration (the Fig. 4 split).

The split of one shard into two follows the paper's timeline:

1. the moving replica's group subscribes to the new stream
   (``subscribe_msg`` ordered in both the new and the old stream);
2. after a settling delay, the new partition map is (a) multicast as a
   :class:`~repro.kvstore.commands.MapChangeCmd` in the *old* stream --
   every replica still subscribes to it, so all of them switch at the
   same point of the merged order -- and (b) published to the registry
   so clients re-route;
3. the moving group then unsubscribes from the old stream.

A merge (scale-in) runs the inverse: the absorbing group subscribes to
the doomed partition's stream, the map change removes the partition,
and the doomed stream is unsubscribed.

:class:`KvCluster` puts the store on a simulated
:class:`~repro.harness.cluster.MulticastCluster`: the coordination
registry, key/value replicas and clients, and this orchestrator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ..coordination.registry import RegistryService
from ..multicast.api import MulticastClient
from ..multicast.stream import StreamDeployment
from ..paxos.messages import Propose
from ..paxos.types import AppValue
from ..runtime.kernel import Kernel
from ..workload.generators import KeyspaceWorkload
from .client import PARTITION_MAP_KEY, KvClient
from .commands import MapChangeCmd
from .partitioning import Partition, PartitionMap
from .replica import KvReplica

if TYPE_CHECKING:
    from ..harness.cluster import MulticastCluster

__all__ = ["KvCluster", "RepartitionOrchestrator"]


class RepartitionOrchestrator:
    """Drives shard splits and merges through the multicast layer."""

    def __init__(
        self,
        env: Kernel,
        control_client: MulticastClient,
        directory: Mapping[str, StreamDeployment],
        registry: Optional[RegistryService] = None,
    ):
        self.env = env
        self.client = control_client
        self.directory = directory
        self.registry = registry

    def _multicast_map_change(
        self, via_streams: list[str], new_map: PartitionMap
    ) -> None:
        """Order the map change in every stream (replicas dedup by
        version)."""
        for stream in via_streams:
            command = MapChangeCmd(new_map=new_map)
            self.client.send(
                self.directory[stream].config.coordinator,
                Propose(stream=stream, token=AppValue(payload=command, size=256)),
            )

    def _publish_map(self, new_map: PartitionMap) -> None:
        if self.registry is not None:
            self.registry.put_local(PARTITION_MAP_KEY, new_map)

    def split(
        self,
        old_map: PartitionMap,
        split_index: int,
        moving_group: str,
        moving_replicas: tuple[str, ...],
        new_stream: str,
        settle_delay: float = 5.0,
        prepare: bool = False,
        unsubscribe_delay: float = 0.2,
        notify_delay: float = 0.5,
        on_done: Optional[Callable[[PartitionMap], None]] = None,
    ) -> None:
        """Split partition ``split_index``, from the next scheduling
        step on; ``on_done(new_map)`` runs once the new
        :class:`PartitionMap` is published.

        ``moving_replicas`` (members of ``moving_group``) leave the old
        shard and become the replica set of the new partition, ordered
        by ``new_stream``.

        ``notify_delay`` models the lag between replicas installing the
        new map and clients hearing about it through the registry
        (ZooKeeper in the paper); commands mis-routed in that window are
        discarded at the replicas and resent by the clients after their
        timeout -- the ~1 s re-partitioning gap of Fig. 4.
        """
        old_partition = old_map.partitions[split_index]
        remaining = tuple(
            r for r in old_partition.replicas if r not in moving_replicas
        )
        if not remaining:
            raise ValueError("split would leave the old partition empty")
        new_partitions = list(old_map.partitions)
        new_partitions[split_index] = Partition(
            index=split_index, stream=old_partition.stream, replicas=remaining
        )
        new_partitions.append(
            Partition(
                index=len(new_partitions),
                stream=new_stream,
                replicas=tuple(moving_replicas),
            )
        )
        new_map = PartitionMap(
            version=old_map.version + 1,
            partitions=tuple(new_partitions),
            shared_stream=old_map.shared_stream,
        )

        env = self.env
        old_stream = old_partition.stream

        def hint() -> None:
            self.client.prepare_msg(moving_group, new_stream, via_stream=old_stream)
            env.call_later(settle_delay / 2, subscribe)

        def subscribe() -> None:
            self.client.subscribe_msg(moving_group, new_stream, via_stream=old_stream)
            env.call_later(settle_delay, change_map)

        def change_map() -> None:
            self._multicast_map_change([old_stream], new_map)
            # Give the map change time to be ordered before the moving
            # group stops listening to the old stream.
            env.call_later(unsubscribe_delay, unsubscribe)

        def unsubscribe() -> None:
            self.client.unsubscribe_msg(
                moving_group, old_stream, via_stream=old_stream
            )
            env.call_later(max(0.0, notify_delay - unsubscribe_delay), publish)

        def publish() -> None:
            self._publish_map(new_map)
            if on_done is not None:
                on_done(new_map)

        env.call_later(0.0, hint if prepare else subscribe)

    def merge(
        self,
        old_map: PartitionMap,
        doomed_index: int,
        into_index: int,
        absorbing_group: str,
        settle_delay: float = 5.0,
        on_done: Optional[Callable[[PartitionMap], None]] = None,
    ) -> None:
        """Merge partition ``doomed_index`` into ``into_index``, from
        the next scheduling step on.

        The absorbing group subscribes to the doomed partition's stream
        (replaying its history from the merge point on), the map change
        routes the doomed shard's keys to the absorbing partition, and
        the doomed stream is unsubscribed; then ``on_done(new_map)``
        runs.

        The absorbing replicas only see the doomed stream's commands
        from the merge point on, so the doomed shard's existing rows
        move via the replica-to-replica state-transfer protocol: on
        installing the new map the doomed replicas hand their rows off
        and the absorbing replicas fetch them (see
        :meth:`KvReplica._apply_map_change`).
        """
        if doomed_index == into_index:
            raise ValueError("cannot merge a partition into itself")
        doomed = old_map.partitions[doomed_index]
        absorbing = old_map.partitions[into_index]
        survivors = [
            p for p in old_map.partitions if p.index not in (doomed_index,)
        ]
        reindexed = []
        for new_index, partition in enumerate(survivors):
            reindexed.append(
                Partition(
                    index=new_index,
                    stream=partition.stream,
                    replicas=partition.replicas,
                )
            )
        new_map = PartitionMap(
            version=old_map.version + 1,
            partitions=tuple(reindexed),
            shared_stream=old_map.shared_stream,
        )

        env = self.env

        def subscribe() -> None:
            self.client.subscribe_msg(
                absorbing_group, doomed.stream, via_stream=absorbing.stream
            )
            env.call_later(settle_delay, change_map)

        def change_map() -> None:
            # Both streams carry the map change: the doomed shard's
            # replicas are not subscribed to the absorbing stream.
            self._multicast_map_change([absorbing.stream, doomed.stream], new_map)
            self._publish_map(new_map)
            env.call_later(0.5, unsubscribe)

        def unsubscribe() -> None:
            self.client.unsubscribe_msg(
                absorbing_group, doomed.stream, via_stream=doomed.stream
            )
            if on_done is not None:
                on_done(new_map)

        env.call_later(0.0, subscribe)


class KvCluster:
    """The key/value store on a :class:`MulticastCluster`.

    It starts the coordination registry on the cluster at once (build
    it before the streams, as the store's runs do) and adds key/value
    replicas -- into the cluster's ``replicas`` -- and closed-loop
    clients; the streams, the clock and the run stay the cluster's.
    """

    def __init__(self, cluster: "MulticastCluster"):
        self.cluster = cluster
        self.registry = RegistryService(cluster.env, cluster.network)
        self.registry.start()
        self._orchestrator: Optional[RepartitionOrchestrator] = None

    def add_replica(
        self,
        name: str,
        group: str,
        streams: list[str],
        partition_map: PartitionMap,
        cpu_rate: float = 5000.0,
        **replica_kwargs,
    ) -> KvReplica:
        cluster = self.cluster
        replica = KvReplica(
            cluster.env, cluster.network, name, group, cluster.directory,
            partition_map, cpu_rate=cpu_rate, **replica_kwargs,
        )
        replica.bootstrap(streams)
        cluster.replicas[name] = replica
        return replica

    def add_client(
        self,
        name: str,
        partition_map: PartitionMap,
        workload: Optional[KeyspaceWorkload] = None,
        n_threads: int = 10,
        timeout: float = 1.0,
        think_time: float = 0.0,
    ) -> KvClient:
        cluster = self.cluster
        client = KvClient(
            cluster.env, cluster.network, name, cluster.directory,
            partition_map, workload or KeyspaceWorkload(),
            n_threads=n_threads, timeout=timeout, think_time=think_time,
            rng=cluster.rng.stream(f"client:{name}"),
        )
        client.start_workers()
        return client

    @property
    def orchestrator(self) -> RepartitionOrchestrator:
        if self._orchestrator is None:
            cluster = self.cluster
            self._orchestrator = RepartitionOrchestrator(
                cluster.env, cluster.control, cluster.directory,
                registry=self.registry,
            )
        return self._orchestrator

    def publish_map(self, partition_map: PartitionMap) -> None:
        self.registry.put_local(PARTITION_MAP_KEY, partition_map)
