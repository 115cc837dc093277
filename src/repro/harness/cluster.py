"""The one builder of simulated clusters.

:class:`MulticastCluster` stands up streams (coordinator + acceptor
ring each), multicast replicas and control clients under one
deterministic environment, network and RNG registry, mirroring how the
paper's experiments are deployed on OpenStack.  Every evaluation
driver (:mod:`repro.harness.experiments`, :mod:`repro.baselines`), the
integration tests and the fault-injection scenario runner
(:mod:`repro.faults`) build on it.

:class:`KvCluster` is its key/value extension: the same cluster plus
the coordination registry, key/value replicas, closed-loop clients and
the re-partitioning orchestrator.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..coordination.registry import RegistryService
from ..kvstore.client import PARTITION_MAP_KEY, KvClient
from ..kvstore.partitioning import PartitionMap
from ..kvstore.replica import KvReplica
from ..kvstore.repartition import RepartitionOrchestrator
from ..multicast.api import MulticastClient
from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..multicast.trim import TrimCoordinator
from ..paxos.config import StreamConfig, acceptor_name
from ..sim.core import Environment
from ..sim.network import LinkSpec, Network
from ..sim.rng import RngRegistry
from ..workload.generators import KeyspaceWorkload

__all__ = ["KvCluster", "MulticastCluster"]


class MulticastCluster:
    """Streams, multicast replicas and clients under one environment.

    Streams are deployed and started in the order they are added, each
    with ``n_acceptors`` acceptors and the cluster's ``lam``/``delta_t``
    plus any :class:`~repro.paxos.config.StreamConfig` overrides.
    Replicas added here record their delivered payloads in
    :attr:`delivered`; a driver with its own replica class builds it
    from :attr:`env`, :attr:`network` and :attr:`directory`.  Either
    way a replica joins :attr:`trimmer` as it attaches to a stream,
    and the acceptor logs are trimmed behind the lowest instance any
    of them may still replay (:mod:`repro.multicast.trim`).
    """

    def __init__(
        self,
        streams: tuple[str, ...] | list[str] = (),
        seed: int = 7,
        link_latency: float = 0.001,
        lam: int = 500,
        delta_t: float = 0.05,
        n_acceptors: int = 3,
        **config_overrides,
    ):
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.network = Network(
            self.env, rng=self.rng, default_link=LinkSpec(latency=link_latency)
        )
        self.n_acceptors = n_acceptors
        self._config_overrides = {"lam": lam, "delta_t": delta_t,
                                  **config_overrides}
        self.directory: dict[str, StreamDeployment] = {}
        self.trimmer = TrimCoordinator(self.directory)
        self.replicas: dict[str, MulticastReplica] = {}
        self.delivered: dict[str, list] = {}
        self._client: Optional[MulticastClient] = None
        self._control: Optional[MulticastClient] = None
        for name in streams:
            self.add_stream(name)

    def add_stream(
        self, name: str, recovery_instance_cost: float = 0.0, **config_overrides
    ) -> StreamDeployment:
        """Deploy and start a stream (coordinator + acceptor ring)."""
        if name in self.directory:
            raise ValueError(f"stream {name!r} already deployed")
        config = StreamConfig(
            name=name,
            acceptors=tuple(
                acceptor_name(name, i + 1) for i in range(self.n_acceptors)
            ),
            **{**self._config_overrides, **config_overrides},
        )
        deployment = StreamDeployment(
            self.env, self.network, config,
            recovery_instance_cost=recovery_instance_cost,
        )
        self.directory[name] = deployment
        deployment.trimmer = self.trimmer
        deployment.start()
        return deployment

    def add_replica(
        self,
        name: str,
        group: str,
        streams: list[str],
        on_deliver: Optional[Callable] = None,
        **replica_kwargs,
    ) -> MulticastReplica:
        """Bootstrap a replica; its deliveries land in ``delivered[name]``."""
        if name in self.replicas:
            raise ValueError(f"replica {name!r} already deployed")
        log: list = []
        self.delivered[name] = log

        def record(value, stream, position):
            log.append((value.payload, stream))
            if on_deliver is not None:
                on_deliver(value, stream, position)

        replica = MulticastReplica(
            self.env, self.network, name, group, self.directory,
            on_deliver=record, **replica_kwargs,
        )
        replica.bootstrap(list(streams))
        self.replicas[name] = replica
        return replica

    @property
    def client(self) -> MulticastClient:
        """A lazily created multicast client named ``client``."""
        if self._client is None:
            self._client = MulticastClient(
                self.env, self.network, "client", self.directory
            )
        return self._client

    @property
    def control(self) -> MulticastClient:
        """A control client for subscribe/unsubscribe/prepare requests."""
        if self._control is None:
            self._control = MulticastClient(
                self.env, self.network, "control", self.directory
            )
        return self._control

    def payloads(self, replica: str) -> list:
        """Payloads delivered at ``replica``, in merge order."""
        return [p for p, _s in self.delivered[replica]]

    def run(self, until: float) -> None:
        self.env.run(until=until)


class KvCluster(MulticastCluster):
    """A :class:`MulticastCluster` with the key/value store on top."""

    def __init__(
        self,
        seed: int = 1,
        link_latency: float = 0.0005,
        lam: int = 4000,
        delta_t: float = 0.100,
    ):
        super().__init__(
            seed=seed, link_latency=link_latency, lam=lam, delta_t=delta_t
        )
        self.registry = RegistryService(self.env, self.network)
        self.registry.start()
        self.clients: dict[str, KvClient] = {}
        self._orchestrator: Optional[RepartitionOrchestrator] = None

    # -- replicas ------------------------------------------------------------

    def add_replica(
        self,
        name: str,
        group: str,
        streams: list[str],
        partition_map: PartitionMap,
        cpu_rate: float = 5000.0,
        **replica_kwargs,
    ) -> KvReplica:
        replica = KvReplica(
            self.env,
            self.network,
            name,
            group,
            self.directory,
            partition_map,
            cpu_rate=cpu_rate,
            **replica_kwargs,
        )
        replica.bootstrap(streams)
        self.replicas[name] = replica
        return replica

    # -- clients ---------------------------------------------------------------

    def add_client(
        self,
        name: str,
        partition_map: PartitionMap,
        workload: Optional[KeyspaceWorkload] = None,
        n_threads: int = 10,
        timeout: float = 1.0,
        think_time: float = 0.0,
    ) -> KvClient:
        client = KvClient(
            self.env,
            self.network,
            name,
            self.directory,
            partition_map,
            workload or KeyspaceWorkload(),
            n_threads=n_threads,
            timeout=timeout,
            think_time=think_time,
            rng=self.rng.stream(f"client:{name}"),
        )
        client.start_workers()
        self.clients[name] = client
        return client

    # -- control plane ------------------------------------------------------------

    @property
    def orchestrator(self) -> RepartitionOrchestrator:
        if self._orchestrator is None:
            self._orchestrator = RepartitionOrchestrator(
                self.env, self.control, self.directory, registry=self.registry
            )
        return self._orchestrator

    def publish_map(self, partition_map: PartitionMap) -> None:
        self.registry.put_local(PARTITION_MAP_KEY, partition_map)
