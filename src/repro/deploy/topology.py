"""JSON topology spec: what runs where in a multi-process deployment.

A :class:`TopologySpec` is the single source of truth both sides of a
deployment hydrate from: the supervisor writes it to the run directory
and passes its path to every worker (``python -m repro worker --spec
...``); each worker reads it back, builds the *local* actors its
:class:`NodeSpec` places on it, and reconstructs an identical
:class:`~repro.paxos.config.StreamConfig` for every stream -- local or
remote -- so coordinator/acceptor host names agree across processes
without any runtime negotiation.

The spec is pure data (JSON round-trippable); addresses are *not* part
of it.  Listener ports are ephemeral and distributed at runtime over
the control RPC (``register``), which is also what lets a kill-9'd
worker restart on a fresh port.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..paxos.config import StreamConfig
from ..paxos.skip import DEFAULT_LAMBDA

__all__ = [
    "NodeSpec",
    "TopologySpec",
    "WorkloadSpec",
    "agent_host",
    "build_topology",
    "live_lambda",
    "load_address_file",
]

SPEC_FORMAT = "repro-deploy-spec/1"

# λ per value/s of offered rate in live mode.  λ caps admission
# (docs/PROTOCOL.md §3), and a live stream is meant never to meet that
# cap; but a closed loop, a burst or a ramp offers more than the nominal
# rate: a closed loop sized at 20,000/s runs at ~70,000/s on one core,
# so 2x would cap it and leave its loop idling between gate openings.
LIVE_LAMBDA_PER_RATE = 8


def live_lambda(peak_rate: float) -> int:
    """λ for a live stream whose offered rate peaks at ``peak_rate``
    values/s: ``LIVE_LAMBDA_PER_RATE`` times that, never below the sim
    default (which would silently cap live admission)."""
    return max(DEFAULT_LAMBDA, int(LIVE_LAMBDA_PER_RATE * peak_rate))


def agent_host(node: str) -> str:
    """The transport host name of ``node``'s deploy agent."""
    return f"{node}/agent"


@dataclass
class NodeSpec:
    """One worker process: which cluster pieces it hosts."""

    name: str
    streams: tuple[str, ...] = ()
    replicas: tuple[str, ...] = ()
    client: bool = False
    clock_offset: float = 0.0       # artificial skew of this node's clock (s)


@dataclass
class WorkloadSpec:
    """The Fig. 3-style client workload the deployment drives."""

    duration: float = 4.0           # wall seconds of submissions
    rate: float = 200.0             # multicasts per second
    burst: int = 1                  # submissions per pacing tick
    payload_size: int = 64          # modeled payload bytes per value
    subscribe_after: float = 0.3    # runtime subscribe at this fraction
    drain_timeout: float = 12.0     # wall seconds to reach agreement


@dataclass
class TopologySpec:
    """The whole deployment: nodes, streams, knobs, workload."""

    nodes: tuple[NodeSpec, ...]
    streams: tuple[str, ...]
    acceptors_per_stream: int = 3
    group: str = "g1"
    initial_streams: tuple[str, ...] = ("s1",)
    dissemination: str = "ring"
    adaptive_batching: bool = True
    lam: int = DEFAULT_LAMBDA
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    # Transport knob: consecutive failed connect attempts before a peer
    # link parks as unreachable (docs/RUNTIME.md).  Deployments keep
    # this low so a kill-9'd worker is surfaced quickly.
    unreachable_after: int = 6
    profile: bool = False
    profile_interval: float = 0.02

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("topology needs at least one node")
        if not self.streams:
            raise ValueError("topology needs at least one stream")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        placed_streams = [s for node in self.nodes for s in node.streams]
        if sorted(placed_streams) != sorted(self.streams):
            raise ValueError(
                f"streams {sorted(self.streams)} must be placed on exactly "
                f"one node each (placed: {sorted(placed_streams)})"
            )
        replicas = [r for node in self.nodes for r in node.replicas]
        if len(set(replicas)) != len(replicas):
            raise ValueError(f"replica placed twice: {sorted(replicas)}")
        if not replicas:
            raise ValueError("topology needs at least one replica")
        if sum(1 for node in self.nodes if node.client) != 1:
            raise ValueError("exactly one node must host the client")
        unknown = set(self.initial_streams) - set(self.streams)
        if unknown:
            raise ValueError(f"initial streams not in topology: {unknown}")

    # -- lookups ------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"unknown node {name!r}")

    def owner_of(self, stream: str) -> str:
        for node in self.nodes:
            if stream in node.streams:
                return node.name
        raise KeyError(f"stream {stream!r} not placed on any node")

    def node_of_replica(self, replica: str) -> str:
        for node in self.nodes:
            if replica in node.replicas:
                return node.name
        raise KeyError(f"replica {replica!r} not placed on any node")

    def client_node(self) -> str:
        for node in self.nodes:
            if node.client:
                return node.name
        raise AssertionError("validated spec always has a client node")

    def all_replicas(self) -> tuple[str, ...]:
        return tuple(r for node in self.nodes for r in node.replicas)

    def hosts_of(self, node_name: str) -> tuple[str, ...]:
        """Every transport host name placed on ``node_name`` -- what a
        partition between two nodes has to block."""
        node = self.node(node_name)
        hosts = [agent_host(node.name)]
        for stream in node.streams:
            config = self.stream_config(stream)
            hosts.append(config.coordinator)
            hosts.extend(config.acceptors)
        hosts.extend(node.replicas)
        if node.client:
            hosts.append("client")
        return tuple(hosts)

    def stream_config(self, stream: str) -> StreamConfig:
        """The stream's config, identical on every worker by
        construction (host names are derived from the stream name)."""
        if stream not in self.streams:
            raise KeyError(f"unknown stream {stream!r}")
        return StreamConfig(
            name=stream,
            acceptors=tuple(
                f"{stream}/acceptor-{j + 1}"
                for j in range(self.acceptors_per_stream)
            ),
            ring_mode=(self.dissemination == "ring"),
            adaptive_batching=self.adaptive_batching,
            lam=self.lam,
        )

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["format"] = SPEC_FORMAT
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "TopologySpec":
        if data.get("format") not in (None, SPEC_FORMAT):
            raise ValueError(f"unknown spec format {data.get('format')!r}")
        return cls(
            nodes=tuple(
                NodeSpec(
                    name=n["name"],
                    streams=tuple(n.get("streams", ())),
                    replicas=tuple(n.get("replicas", ())),
                    client=bool(n.get("client", False)),
                    clock_offset=float(n.get("clock_offset", 0.0)),
                )
                for n in data["nodes"]
            ),
            streams=tuple(data["streams"]),
            acceptors_per_stream=int(data.get("acceptors_per_stream", 3)),
            group=data.get("group", "g1"),
            initial_streams=tuple(data.get("initial_streams", ("s1",))),
            dissemination=data.get("dissemination", "ring"),
            adaptive_batching=bool(data.get("adaptive_batching", True)),
            lam=int(data.get("lam", DEFAULT_LAMBDA)),
            workload=WorkloadSpec(**data.get("workload", {})),
            unreachable_after=int(data.get("unreachable_after", 6)),
            profile=bool(data.get("profile", False)),
            profile_interval=float(data.get("profile_interval", 0.02)),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "TopologySpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


def build_topology(
    nodes: int = 3,
    streams: int = 2,
    replicas: int = 3,
    duration: float = 4.0,
    rate: float = 200.0,
    burst: int = 1,
    clock_offsets: Optional[dict[str, float]] = None,
    dedicate_stream_nodes: bool = False,
    **overrides,
) -> TopologySpec:
    """The default deployment layout.

    Streams, replicas and the client are placed round-robin across the
    nodes (:class:`repro.runtime.supervisor.LiveCluster` places its
    in-process nodes with this same function): with the 3-node default, n1 hosts s1 + r1 + the client, n2 hosts
    s2 + r2, and n3 hosts only r3 (the canonical kill-9 victim -- no
    acceptor state dies with it).

    With ``dedicate_stream_nodes`` the streams get nodes of their own
    *after* the replica/client nodes -- the rolling-replace drill's
    shape, where the retired stream's node can be power-cycled without
    touching any replica.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    stream_names = tuple(f"s{i + 1}" for i in range(streams))
    replica_names = tuple(f"r{i + 1}" for i in range(replicas))
    offsets = clock_offsets or {}
    if dedicate_stream_nodes:
        plain = nodes
        names = [f"n{i + 1}" for i in range(plain + streams)]
        placement_streams: dict[str, list[str]] = {name: [] for name in names}
        for index, stream in enumerate(stream_names):
            placement_streams[names[plain + index]].append(stream)
    else:
        names = [f"n{i + 1}" for i in range(nodes)]
        placement_streams = {name: [] for name in names}
        for index, stream in enumerate(stream_names):
            placement_streams[names[index % len(names)]].append(stream)
    placement_replicas: dict[str, list[str]] = {name: [] for name in names}
    for index, replica in enumerate(replica_names):
        base = names[:nodes] if dedicate_stream_nodes else names
        placement_replicas[base[index % len(base)]].append(replica)
    lam = overrides.pop("lam", live_lambda(rate))
    workload = WorkloadSpec(
        duration=duration, rate=rate, burst=burst,
        **overrides.pop("workload", {}),
    )
    return TopologySpec(
        nodes=tuple(
            NodeSpec(
                name=name,
                streams=tuple(placement_streams[name]),
                replicas=tuple(placement_replicas[name]),
                client=(name == names[0]),
                clock_offset=offsets.get(name, 0.0),
            )
            for name in names
        ),
        streams=stream_names,
        lam=lam,
        workload=workload,
        **overrides,
    )


def load_address_file(path: str) -> dict[str, tuple[str, int]]:
    """Pre-declared worker control addresses for ``--address-file``.

    Format: ``{"nodes": {"n1": {"control": ["10.0.0.5", 7801]}, ...}}``
    (a bare ``{"n1": [host, port]}`` map is accepted too).  The
    supervisor connects to these externally started workers instead of
    spawning children.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entries = data.get("nodes", data)
    addresses: dict[str, tuple[str, int]] = {}
    for node, entry in entries.items():
        if isinstance(entry, dict):
            host, port = entry["control"]
        else:
            host, port = entry
        addresses[node] = (str(host), int(port))
    if not addresses:
        raise ValueError(f"address file {path}: no worker addresses")
    return addresses
