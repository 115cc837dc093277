"""``python -m repro live``: N live nodes on one event loop.

:func:`run_live` boots a multi-stream, multi-replica cluster on real
localhost TCP sockets and has the run driver (:mod:`repro.runtime
.driver`) wire it, drive a client workload with a *runtime*
``subscribe_msg`` while traffic flows, drain it and judge it -- the
same code, over in-loop calls, that ``repro deploy`` runs over the
control RPC.  What this module owns is what only the single process
has:

* :class:`LiveCluster` -- ``nodes`` :class:`~repro.runtime.node
  .LiveNode` (a kernel clock domain and a listener socket each, placed
  by the same :func:`~repro.deploy.topology.build_topology` a deployment
  uses) sharing one stream directory, one invariant suite over every
  replica and, without ``telemetry_dir``, one tracer and flight
  recorder; every cross-node message is still codec-serialized and
  travels socket to socket;
* with ``telemetry_dir``: the ``endpoints.json`` file ``python -m repro
  top`` reads and the ``/health`` scrape loop that has every node's
  watchdog evaluate itself;
* the autoscaler (``autoscale``) and the :class:`LiveReport`.

Unlike the simulator, live runs are *not* deterministic: the OS
scheduler and real sockets order events.  Golden digests therefore
apply to the sim backend only; the live acceptance criterion is
:func:`repro.runtime.driver.verdict`, not a particular sequence.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..deploy.topology import build_topology, live_lambda
from ..faults.invariants import InvariantSuite
from ..multicast.replica import MulticastReplica
from ..obs.recorder import FlightRecorder
from ..obs.trace import Tracer, current_metrics, current_tracer
from .driver import Agreement, RunDriver, verdict
from .node import CollectorPolicy, LiveNode, NodeOps
from .telemetry import http_get_json

__all__ = ["LiveCluster", "LiveConfig", "LiveNode", "LiveReport", "run_live"]

_SCRAPE_INTERVAL = 0.5          # /health polling period (s)
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
    # Live datapath (docs/PERFORMANCE.md, "Live datapath performance").
    dissemination: str = "ring"     # phase-2 path: "ring" | "classic"
    adaptive_batching: bool = True  # load-adaptive coordinator batching
    lam: Optional[int] = None       # per-stream λ; None = scale to rate
    burst: int = 1                  # client submissions per workload tick
    uvloop: bool = False            # prefer uvloop's event loop if present

    def effective_lam(self) -> int:
        """λ for each stream's skip pacing.  λ caps admission, so
        unless pinned explicitly it scales to the peak offered rate
        with room to spare (:func:`repro.deploy.topology.live_lambda`)."""
        if self.lam is not None:
            return self.lam
        return live_lambda(max(self.rate, self.rate_ramp or 0.0))

    def __post_init__(self):
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
    client_dropped_backpressure: int = 0
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
        agreed = (
            self.sequences_identical
            and min(self.delivered_per_replica.values(), default=0) > 0
        )
        return verdict(
            Agreement(agreed, ""), self.subscribes_requested,
            self.subscribes_completed, self.violations, self.kernel_failures,
        )[0]

    def summary(self) -> str:
        if self.latency_p50_ms is None:
            latency = "latency n/a"
        else:
            latency = (
                f"p50 {self.latency_p50_ms:.1f} ms "
                f"p99 {self.latency_p99_ms:.1f} ms"
            )
        delivered = min(self.delivered_per_replica.values(), default=0)
        dropped = self.client_dropped_backpressure
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
            + (f" | client node DROPPED {dropped} at its send queue"
               if dropped else "")
        )


class LiveCluster:
    """One in-process live deployment: N :class:`LiveNode` on one event
    loop, reached by the run driver through their op tables -- plus what
    only the single process has: the shared tracer and flight recorder
    of an untelemetried run, the endpoints file and the ``/health``
    scrape loop."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.telemetry_enabled = config.telemetry_dir is not None
        self.recorder: Optional[FlightRecorder] = None
        shared_tracer: Optional[Tracer] = None
        if self.telemetry_enabled:
            os.makedirs(config.telemetry_dir, exist_ok=True)
        else:
            # No telemetry dir: still keep a causal ring buffer so a
            # failed live run ships its history (the sim fault runner's
            # contract).  Ride on an externally installed tracer when
            # there is one.
            self.recorder = FlightRecorder()
            external = current_tracer()
            if external is not None:
                external.add_sink(self.recorder)
                shared_tracer = external
            else:
                shared_tracer = Tracer(sinks=[self.recorder])
        # The placement and workload `repro deploy` gives its workers:
        # node i's clock runs ``i * clock_skew`` ahead, λ follows the
        # peak offered rate.
        self.spec = build_topology(
            nodes=config.nodes, streams=config.streams,
            replicas=config.replicas,
            duration=config.duration, rate=config.rate, burst=config.burst,
            workload={
                "payload_size": config.payload_size,
                "drain_timeout": config.drain_timeout,
            },
            clock_offsets={
                f"n{index + 1}": index * config.clock_skew
                for index in range(config.nodes)
            },
            lam=config.effective_lam(),
            acceptors_per_stream=config.acceptors_per_stream,
            dissemination=config.dissemination,
            adaptive_batching=config.adaptive_batching,
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
        # Failed runs dump their causal rings next to ``--metrics-out``.
        if config.metrics_out:
            self._flight_dir = os.path.dirname(config.metrics_out) or "."
        else:
            self._flight_dir = config.telemetry_dir or "."
        self.driver = RunDriver(self.spec, {
            node.name: NodeOps(node, self.spec.workload, os.path.join(
                self._flight_dir, f"live-flight-{node.name}.jsonl"
            ))
            for node in self.nodes
        })
        # What the ledger and the tests drive a cluster through.
        self.subscribe = self.driver.subscribe
        self.wait_subscribed = self.driver.wait_subscribed
        self.drain = self.driver.drain
        self.scrape_count = 0
        self._scrape_task: Optional[asyncio.Task] = None
        self._collector = CollectorPolicy()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        for node in self.nodes:
            await node.listen()
        if self.telemetry_enabled:
            self._write_endpoints_file()
        await self.driver.wire()
        if self.telemetry_enabled:
            self._scrape_task = asyncio.ensure_future(self._scrape_loop())
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
        await self.driver.stop()
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
            await asyncio.sleep(_SCRAPE_INTERVAL)

    def dump_flight_recordings(self, message: str) -> list[str]:
        """Dump the causal ring an untelemetried run shares next to
        ``--metrics-out`` (with telemetry every node has its own, which
        the run driver asks for)."""
        if self.recorder is None:
            return []
        os.makedirs(self._flight_dir, exist_ok=True)
        path = os.path.join(self._flight_dir, "live-flight.jsonl")
        self.recorder.dump(
            path, header={"message": message, "ts": self.kernel._now}
        )
        return [path]

    # -- what callers that bring their own workload use ---------------

    def multicast(self, stream: str, sequence: int) -> None:
        self.client_node.multicast(
            stream, f"m{sequence}", self.config.payload_size
        )

    def sequences(self) -> dict[str, list]:
        return {
            name: self.invariants.logs[name].sequence()
            for name in self.replicas
        }


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
    driver = cluster.driver
    loop = cluster._loop
    try:
        await cluster.start()
        autoscale_events: list[str] = []
        started = cluster.kernel.now
        if config.autoscale:
            # The controller owns reconfiguration: no scripted
            # subscribe, streams join only when the policy engine
            # decides they should.
            controller = _autoscaler(cluster)
            await driver.start_workload(config.rate_ramp)
            await _autoscale_loop(controller, loop.time() + config.duration)
            await driver.wait_workload()
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
            active = cluster.client_node.active_streams
            for stream in controller.executor.pending:
                if await driver.wait_subscribed(stream):
                    active.append(stream)
            driver.requested += [
                action.stream for _, action, _ in controller.executed
            ]
            driver.committed += [s for s in driver.requested if s in active]
        else:
            await driver.run_workload(config.rate_ramp)

        outcome = await driver.collect(await driver.drain())
        flight_dumps = outcome.flight_dumps
        if not outcome.ok:
            flight_dumps += cluster.dump_flight_recordings(outcome.detail)

        delivered = {
            name: len(sequence_)
            for name, sequence_ in cluster.sequences().items()
        }
        transport_counters: dict[str, int] = {}
        for status in outcome.statuses.values():
            for name, value in status["transport"].items():
                combine = max if name == "peak_send_queue" else sum
                transport_counters[name] = combine(
                    (transport_counters.get(name, 0), value)
                )
        report = LiveReport(
            streams=config.streams,
            replicas=config.replicas,
            duration=config.duration,
            submitted=cluster.client_node.submitted,
            delivered_per_replica=delivered,
            sequences_identical=outcome.agreement.ok,
            subscribes_completed=len(driver.committed),
            subscribes_requested=len(driver.requested),
            invariant_checks=cluster.invariants.checks_run,
            violations=sum(outcome.violations.values(), []),
            kernel_failures=sum(outcome.kernel_failures.values(), []),
            throughput=min(delivered.values(), default=0) / config.duration,
            latency_p50_ms=outcome.latency_ms["p50"],
            latency_p99_ms=outcome.latency_ms["p99"],
            transport_counters=transport_counters,
            client_dropped_backpressure=outcome.client_dropped_backpressure,
            nodes=config.nodes,
            node_traces={
                name: info["trace"]
                for name, info in driver.info.items() if info["trace"]
            },
            endpoints={
                name: "{}:{}".format(*info["telemetry"])
                for name, info in driver.info.items() if info["telemetry"]
            },
            clock_offsets=dict(driver.clock_offsets),
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
            # Per-node registries aggregated by the driver; without
            # telemetry the process-wide registry, when one is installed.
            dump = outcome.metrics
            if dump is None and cluster.kernel.metrics is not None:
                dump = cluster.kernel.metrics.dump()
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
