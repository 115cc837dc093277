"""The topology spec: the one description of a cluster, on both backends.

A :class:`TopologySpec` states Figure 2's picture: streams (coordinator
and acceptor ring, at one λ/Δt), groups of replicas that start on some
of them and -- live -- which node hosts what.  The simulator's checked
runs (:class:`repro.faults.runner.CheckedRun`) deploy it without
placement; each live node (:meth:`repro.runtime.node.LiveNode.from_spec`)
builds what its :class:`NodeSpec` places on it.  Every actor is named by
the one rule of :mod:`repro.paxos.config`, so every worker derives the
same names and configs without negotiation.

The spec is pure data (JSON round-trippable); addresses are *not* part
of it.  Listener ports are ephemeral and distributed at runtime by
the ``register`` op, which is also what lets a kill-9'd worker restart
on a fresh port.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..paxos.config import (
    DEFAULT_DELTA_T,
    DEFAULT_LAMBDA,
    StreamConfig,
    acceptor_name,
    coordinator_name,
    replica_name,
)

__all__ = [
    "NodeSpec",
    "TopologySpec",
    "WorkloadSpec",
    "agent_host",
    "build_topology",
    "live_lambda",
    "load_address_file",
]

SPEC_FORMAT = "repro-deploy-spec/2"

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
    """Streams, groups, their parameters and (live) their placement."""

    streams: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]      # group -> initial streams
    # Which node hosts what; empty on the simulator, which has no nodes.
    nodes: tuple[NodeSpec, ...] = ()
    replicas_per_group: int = 2
    acceptors_per_stream: int = 3
    lam: int = DEFAULT_LAMBDA
    delta_t: float = DEFAULT_DELTA_T
    dissemination: str = "ring"
    adaptive_batching: bool = True
    # Streams deployed with a standby coordinator (simulator only).
    failover: tuple[str, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    profile: bool = False

    def __post_init__(self):
        if not self.streams:
            raise ValueError("topology needs at least one stream")
        if not self.groups or self.replicas_per_group < 1:
            raise ValueError("topology needs at least one replica")
        for group, initial in self.groups.items():
            if not initial or not set(initial) <= set(self.streams):
                raise ValueError(f"group {group!r} must start on streams "
                                 f"of the topology, not {initial}")
        if not self.nodes:
            return      # a simulated cluster: nothing is placed
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        placed_streams = [s for node in self.nodes for s in node.streams]
        if sorted(placed_streams) != sorted(self.streams):
            raise ValueError(
                f"streams {sorted(self.streams)} must be placed on exactly "
                f"one node each (placed: {sorted(placed_streams)})"
            )
        placed = [r for node in self.nodes for r in node.replicas]
        if sorted(placed) != sorted(self.all_replicas()):
            raise ValueError(
                f"replicas {sorted(self.all_replicas())} must be placed on "
                f"exactly one node each (placed: {sorted(placed)})"
            )
        # One client process: msg_ids are unique per process
        # (repro.paxos.types.next_value_id), so a second would mint the
        # same ones.
        if sum(1 for node in self.nodes if node.client) != 1:
            raise ValueError("exactly one node must host the client")
        if self.failover:
            raise ValueError("a standby coordinator is simulated only")

    # -- names --------------------------------------------------------

    def acceptors(self, stream: str) -> tuple[str, ...]:
        n = self.acceptors_per_stream
        return tuple(acceptor_name(stream, i) for i in range(1, n + 1))

    def replicas_of(self, group: str) -> tuple[str, ...]:
        n = self.replicas_per_group
        return tuple(replica_name(group, i) for i in range(1, n + 1))

    def all_replicas(self) -> tuple[str, ...]:
        """Every replica, group by group in name order."""
        return tuple(r for g in sorted(self.groups) for r in self.replicas_of(g))

    def group_of(self, replica: str) -> str:
        return {r: g for g in self.groups for r in self.replicas_of(g)}[replica]

    # -- placement ----------------------------------------------------

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

    def client_node(self) -> str:
        for node in self.nodes:
            if node.client:
                return node.name
        raise ValueError("no node hosts the client (a simulated topology)")

    def hosts_of(self, node_name: str) -> tuple[str, ...]:
        """Every transport host name placed on ``node_name`` -- what a
        partition between two nodes has to block."""
        node = self.node(node_name)
        hosts = [agent_host(node.name)]
        for stream in node.streams:
            hosts.append(coordinator_name(stream))
            hosts.extend(self.acceptors(stream))
        hosts.extend(node.replicas)
        if node.client:
            hosts.append("client")
        return tuple(hosts)

    def stream_knobs(self) -> dict:
        """The :class:`StreamConfig` fields every stream shares."""
        return {"lam": self.lam, "delta_t": self.delta_t,
                "ring_mode": self.dissemination == "ring",
                "adaptive_batching": self.adaptive_batching}

    def stream_config(self, stream: str) -> StreamConfig:
        """The stream's config, identical on every worker by
        construction (host names are derived from the stream name)."""
        if stream not in self.streams:
            raise KeyError(f"unknown stream {stream!r}")
        return StreamConfig(
            name=stream, acceptors=self.acceptors(stream),
            **self.stream_knobs(),
        )

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["format"] = SPEC_FORMAT
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "TopologySpec":
        """The inverse of :meth:`to_json`; a missing field takes its
        dataclass default.  A ``repro-deploy-spec/1`` document (one
        ``group``, ``initial_streams``) is refused."""
        found = data.get("format") or (
            "repro-deploy-spec/1" if "group" in data else None)
        if found not in (None, SPEC_FORMAT):
            raise ValueError(f"spec format {found!r} is not {SPEC_FORMAT!r}"
                             f" (rebuild it: 'groups' replaced 'group')")
        def tuples(entries: dict) -> dict:    # JSON lists -> the tuples
            return {key: tuple(value) if isinstance(value, list) else value
                    for key, value in entries.items() if key != "format"}

        fields = tuples(data)
        fields["groups"] = tuples(data["groups"])
        fields["nodes"] = tuple(
            NodeSpec(**tuples(n)) for n in data.get("nodes", ())
        )
        fields["workload"] = WorkloadSpec(**data.get("workload", {}))
        return cls(**fields)

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
    clock_skew: float = 0.0,
    dedicate_stream_nodes: bool = False,
    **overrides,
) -> TopologySpec:
    """The default deployment layout: streams ``s1``..``sN``, one group
    ``g1`` of ``replicas`` replicas that starts on ``s1``.

    Streams, replicas and the client are placed round-robin across the
    nodes (:class:`repro.runtime.supervisor.LiveCluster` places its
    in-process nodes with this same function): with the 3-node default,
    n1 hosts s1 + g1/r1 + the client, n2 hosts s2 + g1/r2, and n3 hosts
    only g1/r3 (the canonical kill-9 victim -- no acceptor state dies
    with it).

    With ``dedicate_stream_nodes`` the streams get nodes of their own
    *after* the replica/client nodes -- the rolling-replace drill's
    shape, where the retired stream's node can be power-cycled without
    touching any replica.

    Node ``n<i+1>``'s clock runs ``i * clock_skew`` seconds ahead of
    ``n1``'s.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    stream_names = tuple(f"s{i + 1}" for i in range(streams))
    extra = streams if dedicate_stream_nodes else 0
    names = [f"n{i + 1}" for i in range(nodes + extra)]
    stream_nodes = names[nodes:] if dedicate_stream_nodes else names
    placement_streams: dict[str, list[str]] = {name: [] for name in names}
    for index, stream in enumerate(stream_names):
        placement_streams[stream_nodes[index % len(stream_nodes)]].append(
            stream
        )
    placement_replicas: dict[str, list[str]] = {name: [] for name in names}
    for index in range(replicas):
        placement_replicas[names[index % nodes]].append(
            replica_name("g1", index + 1)
        )
    lam = overrides.pop("lam", live_lambda(rate))
    workload = WorkloadSpec(
        duration=duration, rate=rate, burst=burst,
        **overrides.pop("workload", {}),
    )
    return TopologySpec(
        streams=stream_names,
        groups={"g1": stream_names[:1]},
        nodes=tuple(
            NodeSpec(
                name=name,
                streams=tuple(placement_streams[name]),
                replicas=tuple(placement_replicas[name]),
                client=(name == names[0]),
                clock_offset=index * clock_skew,
            )
            for index, name in enumerate(names)
        ),
        replicas_per_group=replicas,
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
