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
each is a :class:`~repro.runtime.node.LiveNode` -- its own
:class:`AsyncioKernel` (clock domain) and :class:`TcpTransport`
(listener socket) -- hydrated from the same placement ``repro deploy``
hands its worker processes (:func:`repro.deploy.topology
.build_topology`: streams, replicas and the client round-robin).  All
nodes still run on one asyncio loop in this process, but every
cross-node message is codec-serialized and travels socket-to-socket
between two different listeners -- the same failure surface as two
processes, minus the fork.

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
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..deploy.topology import build_topology
from ..faults.invariants import InvariantSuite, InvariantViolation
from ..multicast.replica import MulticastReplica
from ..obs.recorder import FlightRecorder
from ..obs.trace import Tracer, current_metrics, current_tracer
from ..paxos.skip import DEFAULT_LAMBDA
from .node import CollectorPolicy, LiveNode, percentile
from .telemetry import (
    CLOCK_SYNC_SAMPLES,
    aggregate_dumps,
    estimate_offset,
    http_get_json,
)

__all__ = ["LiveCluster", "LiveConfig", "LiveNode", "LiveReport", "run_live"]

_SUBSCRIBE_AFTER = 0.3          # scripted subscribe: fraction of the run
# The live autoscaler's control loop (docs/ELASTICITY.md, "Live mode").
_AUTOSCALE_INTERVAL = 0.25      # controller polling period (s)
_AUTOSCALE_SUSTAIN = 2          # consecutive breaches to fire
_AUTOSCALE_COOLDOWN = 1.5       # seconds between reconfigurations


@dataclass
class LiveConfig:
    """Knobs of a live run (defaults match the CI smoke test scale)."""

    streams: int = 2
    replicas: int = 3
    acceptors_per_stream: int = 3
    duration: float = 5.0           # workload wall seconds
    rate: float = 200.0             # client multicasts per second
    payload_size: int = 64          # modeled payload bytes per value
    drain_timeout: float = 10.0     # wall seconds to reach agreement
    metrics_out: Optional[str] = None
    nodes: int = 1                  # clock/transport domains to partition into
    telemetry_dir: Optional[str] = None   # per-node traces + HTTP endpoints
    clock_skew: float = 0.0         # artificial skew between node clocks (s)
    scrape_interval: float = 0.5    # supervisor /health polling period
    # Closed-loop elasticity (docs/ELASTICITY.md, "Live mode"): instead
    # of the scripted subscribe, the elasticity controller polls the
    # signal plane and runtime-subscribes the spare streams when the
    # decide-rate ceiling is breached.
    autoscale: bool = False
    rate_ramp: Optional[float] = None     # ramp client rate to this value
    autoscale_ceiling: float = 150.0      # decided values/s per stream
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
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.clock_skew < 0:
            raise ValueError("clock_skew must be non-negative")
        if self.rate_ramp is not None and self.rate_ramp <= 0:
            raise ValueError("rate_ramp must be positive")
        if self.autoscale_ceiling <= 0:
            raise ValueError("autoscale_ceiling must be positive")
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


class LiveCluster:
    """One in-process live deployment: N :class:`LiveNode` on one event
    loop -- plus what only the single process has: the shared tracer
    and flight recorder of an untelemetried run, the endpoints file,
    HTTP clock sync, the ``/health`` scrape loop and the report."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.telemetry_enabled = config.telemetry_dir is not None
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
        # The placement `repro deploy` gives its workers: node i's clock
        # runs ``i * clock_skew`` ahead, λ follows the peak offered rate.
        self.spec = build_topology(
            nodes=config.nodes, streams=config.streams,
            replicas=config.replicas,
            clock_offsets={
                f"n{index + 1}": index * config.clock_skew
                for index in range(config.nodes)
            },
            lam=config.effective_lam(),
            acceptors_per_stream=config.acceptors_per_stream,
            dissemination=config.dissemination,
            adaptive_batching=config.adaptive_batching,
            profile_interval=config.profile_interval,
        )
        # node -> collapsed-stacks file (empty unless profiling is on).
        self.profile_files: dict[str, str] = {}
        if config.profile_dir is not None:
            os.makedirs(config.profile_dir, exist_ok=True)
            self.profile_files = {
                placed.name: os.path.join(
                    config.profile_dir, f"{placed.name}.stacks.txt"
                )
                for placed in self.spec.nodes
            }
        # One directory for the whole process, in s1..sN order: every
        # node adds the deployments it hosts and sees all the others.
        self.directory: dict = dict.fromkeys(self.spec.streams)
        self.nodes: list[LiveNode] = [
            LiveNode.from_spec(
                self.spec, placed.name, self.directory,
                tracer=shared_tracer,
                telemetry_dir=config.telemetry_dir,
                profile_path=self.profile_files.get(placed.name),
            )
            for placed in self.spec.nodes
        ]
        self.kernel = self.nodes[0].kernel       # reference clock domain
        self._loop = self.kernel._loop
        placed: dict[str, MulticastReplica] = {}
        for node in self.nodes:
            placed.update(node.replicas)
        self.replicas = {
            f"r{index + 1}": placed[f"r{index + 1}"]
            for index in range(config.replicas)
        }
        # One suite over every replica of the process: agreement is a
        # cross-replica property, and /health reads deliveries off it.
        self.invariants = InvariantSuite(self.replicas)
        for node in self.nodes:
            node.invariants = self.invariants
        self.client_node = next(
            node for node in self.nodes if node.client is not None
        )
        self.client = self.client_node.client
        # Submit -> deliver latency of every value delivered by a
        # replica on the client's node (one sample per such replica).
        self.latencies_ms = self.client_node.latencies_ms
        self.clock_offsets: dict[str, float] = {}
        self.scrape_count = 0
        self._scrape_task: Optional[asyncio.Task] = None
        self._collector = CollectorPolicy()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        for node in self.nodes:
            await node.listen()
        # Every node learns where every other node's hosts listen, so a
        # cross-node send dials the owning node's socket.
        for a, b in itertools.permutations(self.nodes, 2):
            for hostname in b.transport.hosts():
                a.transport.register_address(hostname, b.transport.address)
        if self.telemetry_enabled:
            self._write_endpoints_file()
            await self._sync_clocks()
            self._scrape_task = asyncio.ensure_future(self._scrape_loop())
        for node in self.nodes:
            node.start()
        self._collector.apply()

    async def stop(self) -> None:
        self._collector.restore()
        if self._scrape_task is not None:
            # Cancel until it sticks: before Python 3.12, wait_for (in
            # http_get_json) swallows a cancellation that lands just as
            # its fetch completes, and the loop would scrape on forever.
            while not self._scrape_task.done():
                self._scrape_task.cancel()
                await asyncio.wait({self._scrape_task}, timeout=0.1)
            self._scrape_task = None
        # Every actor stops before the first socket closes, so no node
        # dials a listener that is already gone.
        for node in self.nodes:
            node.stop_actors()
        for node in self.nodes:
            await node.close()

    # -- telemetry plane ----------------------------------------------

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
                for _ in range(CLOCK_SYNC_SAMPLES):
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
        """Poll every node's /health endpoint: each scrape has the
        node's watchdog evaluate itself (alerts land in its trace)."""
        while True:
            for node in self.nodes:
                if node.endpoint is None:
                    continue
                try:
                    await http_get_json(*node.endpoint, "/health")
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
        self.client_node.multicast(
            stream, f"m{sequence}", self.config.payload_size
        )

    async def subscribe(self, new_stream: str, timeout: float) -> bool:
        """Runtime-subscribe the group to ``new_stream``; True once
        every replica's dMerge has switched."""
        self.client_node.subscribe_msg(new_stream)
        return await self.wait_subscribed(new_stream, timeout)

    async def wait_subscribed(self, stream: str, timeout: float) -> bool:
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            if all(
                stream in replica.subscriptions
                for replica in self.replicas.values()
            ):
                return True
            await asyncio.sleep(0.02)
        return False

    # -- observation --------------------------------------------------

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
        while True:
            sequences = list(self.sequences().values())
            first = sequences[0]
            if first and all(sequence == first for sequence in sequences):
                return True
            if self._loop.time() >= deadline:
                return False
            await asyncio.sleep(0.1)


class _SpareStreams:
    """The live controller's executor.  Spare streams are deployed from
    the start, so growing the group is a ``subscribe_msg`` -- and
    routing client traffic to the stream once its subscription is in
    the committed set, never before."""

    def __init__(self, cluster: LiveCluster):
        self.streams = cluster.directory
        self.node = cluster.client_node
        self.pending: list[str] = []    # requested, not yet committed

    def next_stream_name(self) -> Optional[str]:
        taken = {*self.node.active_streams, *self.pending}
        return next((s for s in self.streams if s not in taken), None)

    def execute(self, action) -> int:
        self.pending.append(action.stream)
        return self.node.subscribe_msg(action.stream, via=action.via)

    def poll(self, snapshot) -> None:
        for stream in [s for s in self.pending if s in snapshot.streams]:
            self.pending.remove(stream)
            self.node.active_streams.append(stream)


def _autoscaler(cluster: LiveCluster):
    """The :class:`repro.elasticity.ElasticityController` of a live run
    (docs/ELASTICITY.md, "Live mode"): the decide-rate ceiling over the
    per-node HTTP endpoints when telemetry is on (the production
    shape), over the installed registry otherwise -- sampled on the
    reference kernel's clock, so ``elastic.*`` events stay in their
    node's clock domain.  Imports stay inside the function: the runtime
    layer must not pull the simulator in at module scope."""
    from ..elasticity.controller import ElasticityController
    from ..elasticity.policy import DecideRateCeiling, PolicyEngine
    from ..elasticity.signals import HttpSignalSource, SimSignalSource

    kernel = cluster.kernel
    if cluster.telemetry_enabled:
        source = HttpSignalSource(
            {node.name: node.endpoint for node in cluster.nodes},
            clock=lambda: kernel.now,
        )
    else:
        source = SimSignalSource(
            kernel, kernel.metrics, cluster.replicas, cluster.directory
        )
    # No max_streams cap: live runs pre-provision their spare streams
    # (the engine's provisioned-count cap would see them all deployed
    # from t=0); running out of spares makes plan() return None instead.
    engine = PolicyEngine(
        (DecideRateCeiling(ceiling=cluster.config.autoscale_ceiling),),
        sustain=_AUTOSCALE_SUSTAIN,
        cooldown=_AUTOSCALE_COOLDOWN,
    )
    return ElasticityController(
        source, engine, _SpareStreams(cluster),
        interval=_AUTOSCALE_INTERVAL, tracer=kernel.tracer,
    )


async def _autoscale_loop(controller, until: float) -> None:
    """Tick the controller while the workload flows; the HTTP source
    samples asynchronously, the registry one inline."""
    loop = asyncio.get_running_loop()
    while loop.time() < until:
        await asyncio.sleep(controller.interval)
        snapshot = controller.source.sample()
        if asyncio.iscoroutine(snapshot):
            snapshot = await snapshot
        controller.tick(snapshot)


async def _run(config: LiveConfig) -> LiveReport:
    blind = config.telemetry_dir is None and current_metrics() is None
    if config.autoscale and blind:
        raise ValueError(
            "autoscale has no signal to poll: pass telemetry_dir or "
            "install a metrics registry (repro.obs.trace.installed)"
        )
    cluster = LiveCluster(config)
    loop = cluster._loop
    try:
        await cluster.start()
        client = cluster.client_node
        active = client.active_streams
        spare = [s for s in cluster.directory if s not in active]
        subscribes_requested = len(spare)
        autoscale_events: list[str] = []
        started = cluster.kernel.now
        workload = asyncio.ensure_future(client.workload(
            config.duration, config.rate, config.burst, config.payload_size,
            rate_end=config.rate_ramp,
        ))
        try:
            if config.autoscale:
                # The controller owns reconfiguration: no scripted
                # subscribe, streams join only when the policy engine
                # decides they should.
                controller = _autoscaler(cluster)
                await _autoscale_loop(controller, loop.time() + config.duration)
                await workload
                subscribes_requested = len(controller.executed)
                reasons = {
                    record.at: record.proposal.reason
                    for record in controller.engine.fired()
                }
                autoscale_events = [
                    f"t+{at - started:.2f}s subscribe {action.stream}: "
                    f"{reasons[at]}"
                    for at, action, _ in controller.executed
                ]
                # A subscribe still in flight gets its chance to commit.
                for stream in controller.executor.pending:
                    if await cluster.wait_subscribed(stream, config.drain_timeout):
                        active.append(stream)
            else:
                # Subscribe to every further stream while the workload
                # keeps flowing (the paper's online reconfiguration).
                if spare:
                    await asyncio.sleep(_SUBSCRIBE_AFTER * config.duration)
                for stream in spare:
                    if await cluster.subscribe(stream, config.drain_timeout):
                        active.append(stream)
                await workload
        finally:
            workload.cancel()
        subscribes_completed = len(active) - len(cluster.spec.initial_streams)

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
                combine = max if name == "peak_send_queue" else sum
                transport_counters[name] = combine(
                    (transport_counters.get(name, 0), value)
                )
        report = LiveReport(
            streams=config.streams,
            replicas=config.replicas,
            duration=config.duration,
            submitted=client.submitted,
            delivered_per_replica=delivered,
            sequences_identical=agreed,
            subscribes_completed=subscribes_completed,
            subscribes_requested=subscribes_requested,
            invariant_checks=cluster.invariants.checks_run,
            violations=violations,
            kernel_failures=cluster.kernel_failures(),
            throughput=min(delivered.values(), default=0) / config.duration,
            latency_p50_ms=percentile(latencies, 50),
            latency_p99_ms=percentile(latencies, 99),
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
            autoscale_events=autoscale_events,
            profile_files=cluster.profile_files,
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
