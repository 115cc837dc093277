"""The one builder of simulated clusters.

:class:`MulticastCluster` stands up streams (coordinator + acceptor
ring each), multicast replicas and control clients under one
deterministic environment, network and RNG registry, mirroring how the
paper's experiments are deployed on OpenStack.  Every evaluation
driver (:mod:`repro.harness.experiments`, :mod:`repro.baselines`),
every benchmark (``benchmarks/test_bench_*.py``), the integration
tests and the fault-injection scenario runner (:mod:`repro.faults`)
build on it; the paper's broadcast service on top is
:class:`repro.harness.broadcast.BroadcastDeployment`, and the
key/value store's is :class:`repro.kvstore.repartition.KvCluster`.
A bench that needs a piece the cluster does not offer (acceptor
storage, region-named acceptors) builds only that piece on its
:attr:`~MulticastCluster.env`, :attr:`~MulticastCluster.network` and
:attr:`~MulticastCluster.directory`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..multicast.api import MulticastClient
from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..multicast.trim import TrimCoordinator
from ..paxos.config import StreamConfig, acceptor_name
from ..sim.core import Environment
from ..sim.network import LinkSpec, Network
from ..sim.rng import RngRegistry

__all__ = ["MulticastCluster"]


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
