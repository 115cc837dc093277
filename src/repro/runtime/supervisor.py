"""Process supervisor: boot a live Elastic Paxos cluster and drive it.

``python -m repro live`` lands here.  :func:`run_live` boots a
multi-stream, multi-replica cluster on real localhost TCP sockets,
drives a client workload against it, performs a *runtime*
``subscribe_msg`` while traffic flows, and verifies the paper's
guarantees on the live backend:

* every replica delivers the identical (non-empty) sequence;
* the dynamic subscription completes on all replicas;
* the always-on invariant suite (:mod:`repro.faults.invariants`)
  reports zero violations.

Nodes
-----
With ``nodes > 1`` the cluster is partitioned into that many *nodes*:
each node owns its own :class:`AsyncioKernel` (its own clock domain)
and :class:`TcpTransport` (its own listener socket), and stream
deployments / replicas are placed round-robin across them.  All nodes
still run on one asyncio loop in this process, but every cross-node
message is codec-serialized and travels socket-to-socket between two
different listeners -- the same failure surface as two processes,
minus the fork.

Telemetry
---------
With ``telemetry_dir`` set, every node gets a
:class:`~repro.runtime.telemetry.NodeTelemetry`: a node-stamped tracer
streaming JSONL to ``<dir>/<node>.trace.jsonl``, a metrics registry,
and an HTTP endpoint (``/metrics``, ``/metrics.json``, ``/health``,
``/clock``) whose addresses land in ``<dir>/endpoints.json`` for
``python -m repro top``.  The supervisor estimates each node's clock
offset against node 1 with NTP-style ``/clock`` round trips and writes
``meta.clock`` events into the traces, which is what ``python -m repro
trace-merge`` uses to align the per-node timelines
(:mod:`repro.obs.merge`).  A :class:`FlightRecorder` rides on every
tracer -- telemetry or not -- so a live invariant violation dumps the
causal ring buffer next to ``--metrics-out`` exactly as the sim fault
runner does.

Unlike the simulator, live runs are *not* deterministic: the OS
scheduler and real sockets order events.  Golden digests therefore
apply to the sim backend only; the live acceptance criterion is
replica agreement, not a particular sequence.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..faults.invariants import InvariantSuite, InvariantViolation
from ..multicast.api import MulticastClient
from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..obs.recorder import FlightRecorder
from ..obs.trace import Tracer, current_tracer
from ..paxos.config import StreamConfig
from ..paxos.skip import DEFAULT_LAMBDA
from .asyncio_kernel import AsyncioKernel
from .profiling import LoopLagProbe, StackSampler
from .telemetry import NodeTelemetry, aggregate_dumps, estimate_offset, http_get_json
from .transport import TcpTransport

__all__ = ["LiveCluster", "LiveConfig", "LiveNode", "LiveReport", "run_live"]


def _percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile (mirrors ``repro.sim.monitor.percentile``
    without importing the sim package into the runtime layer)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(pct / 100 * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class LiveConfig:
    """Knobs of a live run (defaults match the CI smoke test scale)."""

    streams: int = 2
    replicas: int = 3
    acceptors_per_stream: int = 3
    duration: float = 5.0           # workload wall seconds
    rate: float = 200.0             # client multicasts per second
    payload_size: int = 64          # modeled payload bytes per value
    subscribe_after: float = 0.3    # runtime subscribe at this fraction
    drain_timeout: float = 10.0     # wall seconds to reach agreement
    metrics_out: Optional[str] = None
    nodes: int = 1                  # clock/transport domains to partition into
    telemetry_dir: Optional[str] = None   # per-node traces + HTTP endpoints
    clock_skew: float = 0.0         # artificial skew between node clocks (s)
    scrape_interval: float = 0.5    # supervisor /health polling period
    clock_sync_samples: int = 5     # /clock round trips per node
    # Closed-loop elasticity (docs/ELASTICITY.md, "Live mode"): instead
    # of the scripted subscribe at ``subscribe_after``, an autoscaler
    # task polls the telemetry plane and runtime-subscribes the spare
    # streams when the decide-rate ceiling is breached.
    autoscale: bool = False
    rate_ramp: Optional[float] = None     # ramp client rate to this value
    autoscale_ceiling: float = 150.0      # decided values/s per stream
    autoscale_interval: float = 0.25      # controller polling period (s)
    autoscale_sustain: int = 2            # consecutive breaches to fire
    autoscale_cooldown: float = 1.5       # seconds between reconfigs
    # Always-on profiling (docs/OBSERVABILITY.md): with profile_dir set,
    # every node runs a background stack sampler for the whole run and
    # writes flamegraph-collapsed stacks to DIR/<node>.stacks.txt.
    profile_dir: Optional[str] = None
    profile_interval: float = 0.02        # sampler period (s)
    # Live datapath (docs/PERFORMANCE.md, "Live datapath performance").
    dissemination: str = "ring"     # phase-2 path: "ring" | "classic"
    adaptive_batching: bool = True  # load-adaptive coordinator batching
    lam: Optional[int] = None       # per-stream λ; None = scale to rate
    burst: int = 1                  # client submissions per workload tick
    uvloop: bool = False            # prefer uvloop's event loop if present

    def effective_lam(self) -> int:
        """λ for each stream's skip pacing.  The sim default (4000
        positions/s) silently caps live admission when the offered rate
        approaches it, so unless pinned explicitly λ scales to twice
        the peak offered rate."""
        if self.lam is not None:
            return self.lam
        peak = max(self.rate, self.rate_ramp or 0.0)
        return max(DEFAULT_LAMBDA, int(2 * peak))

    def __post_init__(self):
        if self.profile_interval <= 0:
            raise ValueError("profile_interval must be positive")
        if self.streams < 1:
            raise ValueError("need at least one stream")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < self.subscribe_after < 1.0:
            raise ValueError("subscribe_after must be a fraction in (0, 1)")
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.clock_skew < 0:
            raise ValueError("clock_skew must be non-negative")
        if self.rate_ramp is not None and self.rate_ramp <= 0:
            raise ValueError("rate_ramp must be positive")
        if self.autoscale_ceiling <= 0:
            raise ValueError("autoscale_ceiling must be positive")
        if self.autoscale_interval <= 0:
            raise ValueError("autoscale_interval must be positive")
        if self.dissemination not in ("ring", "classic"):
            raise ValueError(
                f"dissemination must be 'ring' or 'classic', "
                f"got {self.dissemination!r}"
            )
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.lam is not None and self.lam < 1:
            raise ValueError("lam must be >= 1")


@dataclass
class LiveReport:
    """What a live run observed; ``ok`` is the acceptance verdict."""

    streams: int
    replicas: int
    duration: float
    submitted: int
    delivered_per_replica: dict[str, int]
    sequences_identical: bool
    subscribes_completed: int
    subscribes_requested: int
    invariant_checks: int
    violations: list[str]
    kernel_failures: list[str]
    throughput: float               # deliveries/s at one replica
    latency_p50_ms: Optional[float]
    latency_p99_ms: Optional[float]
    transport_counters: dict[str, int] = field(default_factory=dict)
    nodes: int = 1
    node_traces: dict[str, str] = field(default_factory=dict)
    endpoints: dict[str, str] = field(default_factory=dict)
    clock_offsets: dict[str, float] = field(default_factory=dict)
    flight_dumps: list[str] = field(default_factory=list)
    scrapes: int = 0
    autoscale: bool = False
    autoscale_events: list[str] = field(default_factory=list)
    profile_files: dict[str, str] = field(default_factory=dict)
    dissemination: str = "ring"
    event_loop: str = "asyncio"     # actual loop class driving the run

    @property
    def ok(self) -> bool:
        return (
            self.sequences_identical
            and min(self.delivered_per_replica.values(), default=0) > 0
            and self.subscribes_completed == self.subscribes_requested
            and not self.violations
            and not self.kernel_failures
        )

    def summary(self) -> str:
        if self.latency_p50_ms is None:
            latency = "latency n/a"
        else:
            latency = (
                f"p50 {self.latency_p50_ms:.1f} ms "
                f"p99 {self.latency_p99_ms:.1f} ms"
            )
        delivered = min(self.delivered_per_replica.values(), default=0)
        return (
            f"live: {'OK' if self.ok else 'FAILED'} | "
            f"{'autoscale | ' if self.autoscale else ''}"
            f"{self.streams} streams x {self.replicas} replicas "
            f"on {self.nodes} node{'s' if self.nodes != 1 else ''} | "
            f"{delivered} delivered/replica "
            f"({'identical' if self.sequences_identical else 'DIVERGENT'} "
            f"order) | "
            f"subscribes {self.subscribes_completed}/"
            f"{self.subscribes_requested} | "
            f"violations {len(self.violations)} | "
            f"{self.throughput:.0f} msgs/s | {latency}"
        )


class LiveNode:
    """One clock/transport domain: kernel + transport (+ telemetry)."""

    def __init__(
        self,
        name: str,
        kernel: AsyncioKernel,
        transport: TcpTransport,
        telemetry: Optional[NodeTelemetry] = None,
        profiler: Optional[StackSampler] = None,
    ):
        self.name = name
        self.kernel = kernel
        self.transport = transport
        self.telemetry = telemetry
        # The node's stack sampler: the telemetry plane's when there is
        # one (shared with the /profile routes), standalone otherwise.
        self.profiler = profiler
        self.endpoint: Optional[tuple[str, int]] = None

    def __repr__(self) -> str:
        return f"<LiveNode {self.name}>"


class LiveCluster:
    """One in-process live deployment: nodes, streams, replicas, client
    -- plus the telemetry plane and the taps the report is built from."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.telemetry_enabled = config.telemetry_dir is not None
        self.profile_enabled = config.profile_dir is not None
        if self.profile_enabled:
            os.makedirs(config.profile_dir, exist_ok=True)
        self.nodes: list[LiveNode] = []
        self.recorder: Optional[FlightRecorder] = None
        shared_tracer: Optional[Tracer] = None
        if self.telemetry_enabled:
            os.makedirs(config.telemetry_dir, exist_ok=True)
        else:
            # No telemetry dir: still keep a causal ring buffer so a
            # live invariant violation ships its history (the sim fault
            # runner's contract).  Ride on an externally installed
            # tracer when there is one.
            self.recorder = FlightRecorder()
            external = current_tracer()
            if external is not None:
                external.add_sink(self.recorder)
                shared_tracer = external
            else:
                shared_tracer = Tracer(sinks=[self.recorder])
        for index in range(config.nodes):
            name = f"n{index + 1}"
            skew = index * config.clock_skew
            profiler: Optional[StackSampler] = None
            if self.telemetry_enabled:
                telemetry = NodeTelemetry(
                    name,
                    trace_path=os.path.join(
                        config.telemetry_dir, f"{name}.trace.jsonl"
                    ),
                    profile_interval=config.profile_interval,
                )
                kernel = AsyncioKernel(
                    tracer=telemetry.tracer,
                    metrics=telemetry.registry,
                    clock_offset=skew,
                )
                profiler = telemetry.profiler
                if self.profile_enabled:
                    telemetry.profile_path = self._profile_path(name)
            else:
                telemetry = None
                kernel = AsyncioKernel(tracer=shared_tracer, clock_offset=skew)
                if self.profile_enabled:
                    profiler = StackSampler(interval=config.profile_interval)
            transport = TcpTransport(kernel, node=name)
            self.nodes.append(
                LiveNode(name, kernel, transport, telemetry, profiler)
            )
        self._lag_probes: list[LoopLagProbe] = []
        self.kernel = self.nodes[0].kernel       # reference clock domain
        self._loop = self.kernel._loop
        self.node_of: dict[str, str] = {}        # actor/stream -> node name

        def node_for(index: int) -> LiveNode:
            return self.nodes[index % len(self.nodes)]

        self.directory: dict[str, StreamDeployment] = {}
        for index in range(config.streams):
            node = node_for(index)
            name = f"s{index + 1}"
            stream_config = StreamConfig(
                name=name,
                acceptors=tuple(
                    f"{name}/acceptor-{j + 1}"
                    for j in range(config.acceptors_per_stream)
                ),
                ring_mode=(config.dissemination == "ring"),
                adaptive_batching=config.adaptive_batching,
                lam=config.effective_lam(),
            )
            self.directory[name] = StreamDeployment(
                node.kernel, node.transport, stream_config
            )
            self.node_of[name] = node.name
        self.replicas: dict[str, MulticastReplica] = {}
        self._submit_at: dict[int, float] = {}
        self.latencies_ms: list[float] = []
        for index in range(config.replicas):
            node = node_for(index)
            name = f"r{index + 1}"
            replica = MulticastReplica(
                node.kernel, node.transport, name, group="g1",
                directory=self.directory,
            )
            replica.add_delivery_observer(self._latency_tap)
            self.replicas[name] = replica
            self.node_of[name] = node.name
        self.invariants = InvariantSuite(self.replicas)
        client_node = self.nodes[0]
        self.client = MulticastClient(
            client_node.kernel, client_node.transport, "client", self.directory
        )
        self.node_of["client"] = client_node.name
        self.submitted = 0
        self.clock_offsets: dict[str, float] = {}
        self.scrape_count = 0
        self.last_health: dict[str, dict] = {}
        self._scrape_task: Optional[asyncio.Task] = None
        self.last_subscribe_request_id: Optional[int] = None
        self._signal_totals: dict[str, float] = {}
        self._signal_at: Optional[float] = None

    def _latency_tap(self, value, stream, position) -> None:
        sent = self._submit_at.get(value.msg_id)
        if sent is not None:
            latency_ms = 1000.0 * (self._loop.time() - sent)
            self.latencies_ms.append(latency_ms)
            metrics = self.kernel.metrics
            if metrics is not None:
                metrics.histogram("client", "latency_ms").record(latency_ms)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        for node in self.nodes:
            await node.transport.start()
        # Every node learns where every other node's hosts listen, so a
        # cross-node send dials the owning node's socket.
        for a in self.nodes:
            for b in self.nodes:
                if a is b:
                    continue
                for hostname in b.transport.hosts():
                    a.transport.register_address(hostname, b.transport.address)
        if self.telemetry_enabled:
            for node in self.nodes:
                node.telemetry.bind(node.kernel, self._health_fn(node))
                node.endpoint = await node.telemetry.start_server()
            self._write_endpoints_file()
            await self._sync_clocks()
            self._scrape_task = asyncio.ensure_future(self._scrape_loop())
        if self.profile_enabled:
            for node in self.nodes:
                if node.profiler is not None:
                    node.profiler.start()
        # Event-loop-lag probes ride on whatever registry each kernel
        # has (per-node with telemetry, the process-wide one otherwise);
        # without any registry there is nowhere to export, so skip.
        for node in self.nodes:
            if node.kernel.metrics is not None:
                probe = LoopLagProbe(
                    node.kernel, node.kernel.metrics, actor=node.name
                )
                probe.start()
                self._lag_probes.append(probe)
        for deployment in self.directory.values():
            deployment.start()
        for replica in self.replicas.values():
            replica.bootstrap(["s1"])
        self.client.start()

    def _profile_path(self, node_name: str) -> str:
        return os.path.join(self.config.profile_dir, f"{node_name}.stacks.txt")

    def profile_paths(self) -> dict[str, str]:
        """node -> collapsed-stacks file (empty unless profiling is on)."""
        if not self.profile_enabled:
            return {}
        return {node.name: self._profile_path(node.name) for node in self.nodes}

    async def stop(self) -> None:
        for probe in self._lag_probes:
            probe.stop()
        self._lag_probes = []
        for node in self.nodes:
            if node.profiler is not None and node.profiler.running:
                node.profiler.stop()
        if self.profile_enabled:
            # Telemetry nodes write their stacks in NodeTelemetry.stop()
            # (profile_path is set); bare nodes are written here.
            for node in self.nodes:
                if node.telemetry is None and node.profiler is not None:
                    node.profiler.write_collapsed(self._profile_path(node.name))
        if self._scrape_task is not None:
            # Cancel until it sticks: before Python 3.12, wait_for (in
            # http_get_json) swallows a cancellation that lands just as
            # its fetch completes, and the loop would scrape on forever.
            while not self._scrape_task.done():
                self._scrape_task.cancel()
                await asyncio.wait({self._scrape_task}, timeout=0.1)
            self._scrape_task = None
        self.client.stop()
        for replica in self.replicas.values():
            for core in list(replica.learners.values()):
                core.stop()
            replica.stop()
        for deployment in self.directory.values():
            deployment.stop()
        await asyncio.sleep(0)      # let interrupted tasks unwind
        for node in self.nodes:
            await node.transport.stop()
        for node in self.nodes:
            if node.telemetry is not None:
                await node.telemetry.stop()

    # -- telemetry plane ----------------------------------------------

    def _health_fn(self, node: LiveNode):
        def snapshot() -> dict:
            health: dict = {
                "node": node.name,
                "now": node.kernel._now,
                "streams": {},
                "replicas": {},
                "transport": {
                    "queue_depths": node.transport.queue_depths(),
                    "counters": node.transport.counters(),
                },
            }
            for stream, deployment in self.directory.items():
                if self.node_of[stream] != node.name:
                    continue
                coordinator = deployment.coordinator
                health["streams"][stream] = {
                    "next_instance": coordinator.next_instance,
                    "positions_decided": coordinator.positions_decided,
                    "leading": coordinator.leading,
                }
            for name, replica in self.replicas.items():
                if self.node_of[name] != node.name:
                    continue
                log = self.invariants.logs.get(name)
                health["replicas"][name] = {
                    "subscriptions": list(replica.subscriptions),
                    "positions": dict(replica.merger.positions()),
                    "delivered": len(log.records) if log is not None else 0,
                    "pending_subscription": (
                        replica.merger.pending_subscription is not None
                    ),
                }
            if self.node_of.get("client") == node.name:
                health["client"] = {"submitted": self.submitted}
            return health

        return snapshot

    def _write_endpoints_file(self) -> None:
        path = os.path.join(self.config.telemetry_dir, "endpoints.json")
        payload = {
            "nodes": {
                node.name: {
                    "host": node.endpoint[0],
                    "port": node.endpoint[1],
                    "trace": (
                        node.telemetry.trace_path
                        if node.telemetry is not None else None
                    ),
                }
                for node in self.nodes
            }
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    async def _sync_clocks(self) -> None:
        """Estimate each node's clock offset against node 1 and record
        it as a ``meta.clock`` event in that node's trace (the merge
        tool's alignment input)."""
        reference = self.nodes[0]
        self.clock_offsets[reference.name] = 0.0
        reference.telemetry.tracer.emit(
            "meta.clock", reference.kernel._now, cat="meta",
            ref=reference.name, offset=0.0, rtt=0.0,
        )
        for node in self.nodes[1:]:
            samples = []
            try:
                for _ in range(max(1, self.config.clock_sync_samples)):
                    t0 = reference.kernel._now
                    data = await http_get_json(*node.endpoint, "/clock")
                    t3 = reference.kernel._now
                    samples.append((t0, float(data["now"]), t3))
                offset, rtt = estimate_offset(samples)
            except Exception:
                offset, rtt = 0.0, float("inf")
            self.clock_offsets[node.name] = offset
            node.telemetry.tracer.emit(
                "meta.clock", node.kernel._now, cat="meta",
                ref=reference.name, offset=offset, rtt=rtt,
            )

    async def _scrape_loop(self) -> None:
        """Poll every node's /health endpoint; the latest snapshot per
        node is kept for the report and surfaced to `repro top`."""
        while True:
            for node in self.nodes:
                if node.endpoint is None:
                    continue
                try:
                    self.last_health[node.name] = await http_get_json(
                        *node.endpoint, "/health"
                    )
                    self.scrape_count += 1
                except Exception:
                    pass       # endpoint briefly busy; next tick retries
            await asyncio.sleep(self.config.scrape_interval)

    async def collect_metrics_dump(self) -> Optional[dict]:
        """The cluster-wide ``repro-metrics/1`` dump.

        With telemetry on, scrapes every node's ``/metrics.json``
        endpoint (falling back to the in-process registry if a scrape
        fails) and aggregates with node-prefixed actors; otherwise
        returns the process-wide registry's dump, as before.
        """
        if self.telemetry_enabled:
            dumps: dict[str, dict] = {}
            for node in self.nodes:
                try:
                    dumps[node.name] = await http_get_json(
                        *node.endpoint, "/metrics.json"
                    )
                except Exception:
                    dumps[node.name] = node.telemetry.registry.dump()
            return aggregate_dumps(dumps)
        if self.kernel.metrics is not None:
            return self.kernel.metrics.dump()
        return None

    def dump_flight_recordings(self, message: str) -> list[str]:
        """Dump every causal ring buffer next to ``--metrics-out``."""
        if self.config.metrics_out:
            directory = os.path.dirname(self.config.metrics_out) or "."
        elif self.config.telemetry_dir:
            directory = self.config.telemetry_dir
        else:
            directory = "."
        os.makedirs(directory, exist_ok=True)
        paths: list[str] = []
        header = {"message": message, "ts": self.kernel._now}
        if self.telemetry_enabled:
            for node in self.nodes:
                path = os.path.join(
                    directory, f"live-flight-{node.name}.jsonl"
                )
                node.telemetry.dump_flight(path, header=header)
                paths.append(path)
        elif self.recorder is not None:
            path = os.path.join(directory, "live-flight.jsonl")
            self.recorder.dump(path, header=header)
            paths.append(path)
        return paths

    # -- workload -----------------------------------------------------

    def multicast(self, stream: str, sequence: int) -> None:
        value = self.client.multicast(
            stream, payload=f"m{sequence}", size=self.config.payload_size
        )
        self._submit_at[value.msg_id] = self._loop.time()
        self.submitted += 1

    async def subscribe(self, new_stream: str, timeout: float) -> bool:
        """Runtime-subscribe the group to ``new_stream``; True once
        every replica's dMerge has switched."""
        self.last_subscribe_request_id = self.client.subscribe_msg(
            "g1", new_stream, via_stream="s1"
        )
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            if all(
                new_stream in replica.subscriptions
                for replica in self.replicas.values()
            ):
                return True
            await asyncio.sleep(0.02)
        return False

    # -- observation --------------------------------------------------

    def introspect_snapshot(self):
        """A signal snapshot from in-process state -- the autoscaler's
        fallback when no telemetry endpoints are being served."""
        from ..elasticity.signals import SignalSnapshot

        now = self._loop.time()
        dt = None if self._signal_at is None else now - self._signal_at
        self._signal_at = now
        # Nodes may share one process-wide registry (no-telemetry runs):
        # dedupe by identity before summing per-stream counters.
        registries = {
            id(node.kernel.metrics): node.kernel.metrics
            for node in self.nodes
            if node.kernel.metrics is not None
        }
        totals: dict[str, float] = {}
        for registry in registries.values():
            for (actor, name), counter in registry.counters().items():
                if name == "values_decided" and "/" in actor:
                    stream = actor.split("/", 1)[0]
                    totals[stream] = totals.get(stream, 0.0) + counter.total
        decide_rate: dict[str, float] = {}
        for stream, total in totals.items():
            last = self._signal_totals.get(stream, total)
            self._signal_totals[stream] = total
            if dt is not None and dt > 0:
                decide_rate[stream] = (total - last) / dt
        replicas = list(self.replicas.values())
        committed = tuple(
            s for s in replicas[0].subscriptions
            if all(s in r.subscriptions for r in replicas[1:])
        ) if replicas else ()
        return SignalSnapshot(
            at=now,
            streams=committed,
            provisioned=tuple(sorted(self.directory)),
            pending_subscription=any(
                r.merger.pending_subscription is not None for r in replicas
            ),
            decide_rate=decide_rate,
        )

    def sequences(self) -> dict[str, list]:
        return {
            name: self.invariants.logs[name].sequence()
            for name in self.replicas
        }

    def kernel_failures(self) -> list[str]:
        return [
            repr(failure)
            for node in self.nodes
            for failure in node.kernel.failures
        ]

    async def drain(self, timeout: float) -> bool:
        """Wait until every replica delivered the identical non-empty
        sequence (retransmission heals stragglers)."""
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            sequences = list(self.sequences().values())
            first = sequences[0]
            if first and all(sequence == first for sequence in sequences):
                return True
            await asyncio.sleep(0.1)
        sequences = list(self.sequences().values())
        return bool(sequences[0]) and all(
            sequence == sequences[0] for sequence in sequences
        )


async def _autoscale_loop(
    cluster: LiveCluster,
    config: LiveConfig,
    active_streams: list[str],
    state: dict,
    until: float,
) -> None:
    """The live closed loop: poll the telemetry plane, evaluate the
    decide-rate policy, and runtime-subscribe spare streams while the
    workload keeps flowing (docs/ELASTICITY.md, "Live mode").

    Signals come from the per-node HTTP endpoints when telemetry is on
    (the production shape), falling back to in-process introspection
    otherwise.  Imports stay inside the function: the runtime layer
    must not pull the simulator in at module scope.
    """
    from ..elasticity.policy import DecideRateCeiling, PolicyEngine
    from ..elasticity.signals import HttpSignalSource

    loop = cluster._loop
    start = loop.time()
    # No max_streams cap: live runs pre-provision their spare streams
    # (the engine's provisioned-count cap would see them all deployed
    # from t=0); running out of spares ends the loop below instead.
    engine = PolicyEngine(
        (DecideRateCeiling(ceiling=config.autoscale_ceiling),),
        sustain=config.autoscale_sustain,
        cooldown=config.autoscale_cooldown,
    )
    state["engine"] = engine
    source = (
        HttpSignalSource(
            {node.name: node.endpoint for node in cluster.nodes},
            clock=loop.time,
        )
        if cluster.telemetry_enabled else None
    )
    tracer = cluster.kernel.tracer
    while loop.time() < until:
        await asyncio.sleep(config.autoscale_interval)
        if source is not None:
            snapshot = await source.sample()
        else:
            snapshot = cluster.introspect_snapshot()
        if tracer is not None:
            tracer.emit(
                "elastic.poll", cluster.kernel._now, controller="autoscaler",
                streams=list(snapshot.streams),
                total_rate=round(snapshot.total_rate, 3),
                pending=snapshot.pending_subscription,
            )
        for proposal in engine.observe(snapshot):
            spare = [
                s for s in sorted(cluster.directory)
                if s not in active_streams
            ]
            if not spare:
                return
            target = spare[0]
            state["requested"] += 1
            state["events"].append(
                f"t+{loop.time() - start:.2f}s subscribe {target}: "
                f"{proposal.reason}"
            )
            if tracer is not None:
                tracer.emit(
                    "elastic.decision", cluster.kernel._now,
                    controller="autoscaler", rule=proposal.rule,
                    action=proposal.kind, mode="enforce",
                    reason=proposal.reason,
                )
            done = await cluster.subscribe(
                target, timeout=config.drain_timeout
            )
            if tracer is not None:
                tracer.emit(
                    "elastic.action", cluster.kernel._now,
                    controller="autoscaler", action=proposal.kind,
                    stream=target,
                    request_id=cluster.last_subscribe_request_id,
                )
            if done:
                state["completed"] += 1
                active_streams.append(target)


async def _run(config: LiveConfig) -> LiveReport:
    cluster = LiveCluster(config)
    loop = cluster._loop
    try:
        await cluster.start()

        subscribes_requested = config.streams - 1
        subscribes_completed = 0
        active_streams = ["s1"]
        # Submissions go out ``burst`` at a time: above a few thousand
        # values/s one sleep per message can't keep up (timer
        # granularity), so the sleep cost is amortised over the burst.
        interval = (
            config.burst / config.rate if config.rate > 0 else config.duration
        )
        subscribe_at = loop.time() + config.subscribe_after * config.duration
        workload_end = loop.time() + config.duration
        sequence = 0
        subscribed = subscribes_requested == 0
        autoscale_state: dict = {"requested": 0, "completed": 0, "events": []}
        autoscaler: Optional[asyncio.Task] = None
        if config.autoscale:
            # The controller owns reconfiguration: the scripted
            # subscribe is disabled, subscriptions happen only when the
            # policy engine decides they should.
            subscribed = True
            autoscaler = asyncio.ensure_future(
                _autoscale_loop(
                    cluster, config, active_streams, autoscale_state,
                    workload_end,
                )
            )
        while loop.time() < workload_end:
            for _ in range(config.burst):
                cluster.multicast(
                    active_streams[sequence % len(active_streams)], sequence
                )
                sequence += 1
            if not subscribed and loop.time() >= subscribe_at:
                # Subscribe to every further stream while the workload
                # keeps flowing on s1 (the paper's online reconfig).
                subscribed = True
                for index in range(1, config.streams):
                    done = await cluster.subscribe(
                        f"s{index + 1}", timeout=config.drain_timeout
                    )
                    if done:
                        subscribes_completed += 1
                        active_streams.append(f"s{index + 1}")
            if config.rate_ramp is not None:
                frac = min(1.0, max(
                    0.0,
                    1.0 - (workload_end - loop.time()) / config.duration,
                ))
                rate = config.rate + frac * (config.rate_ramp - config.rate)
                interval = (
                    config.burst / rate if rate > 0 else config.duration
                )
            await asyncio.sleep(interval)
        if autoscaler is not None:
            autoscaler.cancel()
            try:
                await autoscaler
            except asyncio.CancelledError:
                pass
            subscribes_requested = autoscale_state["requested"]
            subscribes_completed = autoscale_state["completed"]

        agreed = await cluster.drain(config.drain_timeout)

        violations: list[str] = []
        try:
            cluster.invariants.check()
        except InvariantViolation as violation:
            violations.append(str(violation))

        flight_dumps: list[str] = []
        if violations:
            flight_dumps = cluster.dump_flight_recordings(violations[0])

        delivered = {
            name: len(sequence_)
            for name, sequence_ in cluster.sequences().items()
        }
        latencies = cluster.latencies_ms
        transport_counters: dict[str, int] = {}
        for node in cluster.nodes:
            for name, value in node.transport.counters().items():
                if name == "peak_send_queue":
                    transport_counters[name] = max(
                        transport_counters.get(name, 0), value
                    )
                else:
                    transport_counters[name] = (
                        transport_counters.get(name, 0) + value
                    )
        report = LiveReport(
            streams=config.streams,
            replicas=config.replicas,
            duration=config.duration,
            submitted=cluster.submitted,
            delivered_per_replica=delivered,
            sequences_identical=agreed,
            subscribes_completed=subscribes_completed,
            subscribes_requested=subscribes_requested,
            invariant_checks=cluster.invariants.checks_run,
            violations=violations,
            kernel_failures=cluster.kernel_failures(),
            throughput=min(delivered.values(), default=0) / config.duration,
            latency_p50_ms=(
                _percentile(latencies, 50) if latencies else None
            ),
            latency_p99_ms=(
                _percentile(latencies, 99) if latencies else None
            ),
            transport_counters=transport_counters,
            nodes=config.nodes,
            node_traces={
                node.name: node.telemetry.trace_path
                for node in cluster.nodes
                if node.telemetry is not None
                and node.telemetry.trace_path is not None
            },
            endpoints={
                node.name: f"{node.endpoint[0]}:{node.endpoint[1]}"
                for node in cluster.nodes
                if node.endpoint is not None
            },
            clock_offsets=dict(cluster.clock_offsets),
            flight_dumps=flight_dumps,
            scrapes=cluster.scrape_count,
            autoscale=config.autoscale,
            autoscale_events=list(autoscale_state["events"]),
            profile_files=cluster.profile_paths(),
            dissemination=config.dissemination,
            event_loop=(
                f"{type(loop).__module__}.{type(loop).__name__}"
            ),
        )
        if config.metrics_out:
            dump = await cluster.collect_metrics_dump()
            if dump is not None:
                with open(config.metrics_out, "w") as fh:
                    json.dump(dump, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        return report
    finally:
        await cluster.stop()


def run_live(config: LiveConfig) -> LiveReport:
    """Boot, drive and tear down a live cluster; returns the report.

    With ``config.uvloop`` the cluster runs on uvloop's event loop when
    the package is importable; uvloop is a *soft* dependency, so when
    it is absent the run falls back to the stdlib loop (the report's
    ``event_loop`` field records which one actually drove the run).
    """
    if config.uvloop:
        try:
            import uvloop  # soft dependency: not in the base install
        except ImportError:
            uvloop = None  # type: ignore[assignment]
        if uvloop is not None:
            previous = asyncio.get_event_loop_policy()
            asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
            try:
                return asyncio.run(_run(config))
            finally:
                asyncio.set_event_loop_policy(previous)
    return asyncio.run(_run(config))
