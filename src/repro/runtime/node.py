"""One live node: a clock domain, a listener and the roles placed on it.

A *node* is what the paper calls a machine: it hosts some streams (a
coordinator and an acceptor ring each), some replicas and possibly the
client.  :class:`LiveNode` is the single place such a node is assembled
for the live backend -- :class:`AsyncioKernel`, :class:`TcpTransport`,
the optional :class:`~repro.runtime.telemetry.NodeTelemetry`, the
protocol actors, the client-latency tap, the event-loop-lag probe, the
paced client workload and the ``/health`` snapshot -- together with the
order they come up and go down in: :meth:`~LiveNode.listen` ->
:meth:`~LiveNode.start` -> :meth:`~LiveNode.stop_actors` ->
:meth:`~LiveNode.close`.

Both deployment shapes hydrate it from the same placement
(:meth:`LiveNode.from_spec`): ``repro live`` runs N nodes on one event
loop (:class:`repro.runtime.supervisor.LiveCluster`), ``repro worker``
one node per OS process (:class:`repro.deploy.worker.DeployWorker`) --
and both are driven through the same op table, :class:`NodeOps`.
The stream ``directory`` is the *caller's*: a node adds the deployments
it hosts and resolves every other stream through it, so the caller
decides what a remote stream is (the same object in-process, a
:class:`~repro.deploy.agent.RemoteStreamDeployment` across processes).
"""

from __future__ import annotations

import asyncio
import gc
import os
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..faults.invariants import InvariantViolation
from ..multicast.api import MulticastClient
from ..multicast.replica import MulticastReplica
from ..multicast.stream import StreamDeployment
from ..paxos.config import StreamConfig
from ..paxos.types import AppValue
from ..quantiles import percentile as nearest_rank
from .asyncio_kernel import AsyncioKernel
from .kernel import GC_THRESHOLD
from .profiling import LoopLagProbe, StackSampler
from .telemetry import NodeTelemetry
from .transport import TcpTransport

if TYPE_CHECKING:
    from ..deploy.topology import TopologySpec, WorkloadSpec

__all__ = ["CollectorPolicy", "LiveNode", "NodeOps", "percentile"]


class CollectorPolicy:
    """The garbage-collector settings of a process while its live
    datapath runs: what exists once the cluster is up is frozen (it
    stays until teardown, so no full collection needs to walk it -- and
    no full collection is run first: set-up time is what a user waits
    for) and the generations are sized to the datapath's allocation
    rate.  :meth:`restore` puts back what :meth:`apply` found."""

    def __init__(self) -> None:
        self._found: Optional[tuple[tuple[int, int, int], int]] = None

    def apply(self) -> None:
        if self._found is None:
            self._found = (gc.get_threshold(), gc.get_freeze_count())
            gc.freeze()
            gc.set_threshold(*GC_THRESHOLD)

    def restore(self) -> None:
        if self._found is not None:
            threshold, frozen = self._found
            self._found = None
            gc.set_threshold(*threshold)
            # What somebody else froze before cannot be told apart from
            # what apply() added: then all of it stays for them to thaw.
            if not frozen:
                gc.unfreeze()


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile of latency samples (the one rule,
    :mod:`repro.quantiles`); None without any."""
    return nearest_rank(values, pct) if values else None


class LiveNode:
    """Kernel + transport (+ telemetry) and every actor placed here."""

    def __init__(
        self,
        name: str,
        directory: dict[str, Any],
        streams: Sequence[StreamConfig] = (),
        replicas: Sequence[str] = (),
        client: bool = False,
        group: str = "g1",
        initial_streams: Sequence[str] = ("s1",),
        clock_offset: float = 0.0,
        unreachable_after: int = 30,
        bind_host: str = "127.0.0.1",
        trace_node: Optional[str] = None,
        tracer: Any = None,
        telemetry_dir: Optional[str] = None,
        profile_path: Optional[str] = None,
        profile_interval: float = 0.02,
    ):
        self.name = name
        # Tracer / transport identity: differs from the placement name
        # only for a restarted worker (one id per incarnation).
        self.trace_node = trace_node if trace_node is not None else name
        self.group = group
        self.initial_streams = tuple(initial_streams)
        self.telemetry: Optional[NodeTelemetry] = None
        # The stack sampler runs for the node's whole life when
        # ``profile_path`` is set; it is the telemetry plane's when
        # there is one (shared with the /profile routes).
        self.profile_path = profile_path
        self.profiler: Optional[StackSampler] = None
        # Without telemetry the kernel gets no ``metrics`` argument: its
        # default is what adopts a process-wide registry if installed.
        observers: dict[str, Any] = {} if tracer is None else {"tracer": tracer}
        if telemetry_dir is not None:
            self.telemetry = NodeTelemetry(
                self.trace_node,
                trace_path=os.path.join(
                    telemetry_dir, f"{self.trace_node}.trace.jsonl"
                ),
                profile_interval=profile_interval,
            )
            self.telemetry.profile_path = profile_path
            self.profiler = self.telemetry.profiler
            observers = {
                "tracer": self.telemetry.tracer,
                "metrics": self.telemetry.registry,
            }
        elif profile_path is not None:
            self.profiler = StackSampler(interval=profile_interval)
        self.kernel = AsyncioKernel(clock_offset=clock_offset, **observers)
        self._loop = self.kernel._loop
        self.transport = TcpTransport(
            self.kernel,
            bind_host=bind_host,
            node=self.trace_node,
            unreachable_after=unreachable_after,
        )
        self.endpoint: Optional[tuple[str, int]] = None
        self.deployments: dict[str, StreamDeployment] = {}
        for config in streams:
            self.deployments[config.name] = directory[config.name] = (
                StreamDeployment(self.kernel, self.transport, config)
            )
        self.replicas: dict[str, MulticastReplica] = {}
        for replica_name in replicas:
            replica = MulticastReplica(
                self.kernel, self.transport, replica_name, group=group,
                directory=directory,
            )
            replica.add_run_observer(self._latency_tap)
            self.replicas[replica_name] = replica
        self.client: Optional[MulticastClient] = None
        if client:
            self.client = MulticastClient(
                self.kernel, self.transport, "client", directory
            )
        # The caller attaches the invariant suite watching these
        # replicas (one per process); /health reads deliveries off it.
        self.invariants: Any = None
        self.active_streams: list[str] = list(self.initial_streams)
        self.submit_at: dict[int, float] = {}
        self.latencies_ms: list[float] = []
        self.submitted = 0
        self._lag_probe: Optional[LoopLagProbe] = None

    @classmethod
    def from_spec(
        cls, spec: "TopologySpec", name: str, directory: dict, **kwargs: Any
    ) -> "LiveNode":
        """The node ``name`` of ``spec``: everything placement decides
        is read off the spec, ``kwargs`` carry what only the caller
        knows (tracer, telemetry directory, bind host, ...)."""
        placed = spec.node(name)
        return cls(
            name, directory,
            streams=[spec.stream_config(s) for s in placed.streams],
            replicas=placed.replicas, client=placed.client,
            group=spec.group, initial_streams=spec.initial_streams,
            clock_offset=placed.clock_offset,
            unreachable_after=spec.unreachable_after,
            profile_interval=spec.profile_interval,
            **kwargs,
        )

    def __repr__(self) -> str:
        return f"<LiveNode {self.name}>"

    # -- lifecycle ----------------------------------------------------

    async def listen(self, health: Optional[Callable[[], dict]] = None) -> None:
        """Open the listener socket and, with telemetry, the HTTP
        endpoint (serving ``health`` -- by default :meth:`health`)."""
        await self.transport.start()
        if self.telemetry is not None:
            self.telemetry.bind(self.kernel, health or self.health)
            self.endpoint = await self.telemetry.start_server()

    def start(self) -> None:
        """Start the probes and every actor placed here; peers'
        addresses must be registered by now."""
        if self.profiler is not None and self.profile_path is not None:
            self.profiler.start()
        # The loop-lag probe rides on whatever registry the kernel has
        # (the node's with telemetry, else a process-wide one); without
        # any there is nowhere to export, so skip.
        if self.kernel.metrics is not None:
            self._lag_probe = LoopLagProbe(
                self.kernel, self.kernel.metrics, actor=self.name
            )
            self._lag_probe.start()
        for deployment in self.deployments.values():
            deployment.start()
        for replica in self.replicas.values():
            replica.bootstrap(list(self.initial_streams))
        if self.client is not None:
            self.client.start()

    def stop_actors(self) -> None:
        """Stop probes and actors, sockets stay open; idempotent."""
        if self._lag_probe is not None:
            self._lag_probe.stop()
            self._lag_probe = None
        if self.profiler is not None and self.profiler.running:
            self.profiler.stop()
        if self.client is not None:
            self.client.stop()
        for replica in self.replicas.values():
            for core in list(replica.learners.values()):
                core.stop()
            replica.stop()
        for deployment in self.deployments.values():
            deployment.stop()

    async def close(self) -> None:
        """Stop the actors, close the sockets, flush trace + profile."""
        self.stop_actors()
        await asyncio.sleep(0)      # let interrupted tasks unwind
        await self.transport.stop()
        if self.telemetry is not None:
            await self.telemetry.stop()     # writes profile_path too
        elif self.profiler is not None and self.profile_path is not None:
            self.profiler.write_collapsed(self.profile_path)

    # -- observation --------------------------------------------------

    def _latency_tap(
        self, stream: str, first: int, values: Sequence[AppValue]
    ) -> None:
        """A local replica delivered a run: time the values this node's
        :meth:`multicast` submitted."""
        submit_at = self.submit_at
        if not submit_at:
            return
        now = self._loop.time()
        metrics = self.kernel.metrics
        for value in values:
            sent = submit_at.get(value.msg_id)
            if sent is not None:
                latency_ms = 1000.0 * (now - sent)
                self.latencies_ms.append(latency_ms)
                if metrics is not None:
                    metrics.histogram("client", "latency_ms").record(latency_ms)

    def health(self) -> dict:
        """The ``/health`` snapshot: what runs here and how far it got."""
        health: dict = {
            "node": self.name,
            "now": self.kernel._now,
            "streams": {},
            "replicas": self.replica_states(),
            "transport": {
                "queue_depths": self.transport.queue_depths(),
                "counters": self.transport.counters(),
            },
        }
        for stream, deployment in self.deployments.items():
            coordinator = deployment.coordinator
            health["streams"][stream] = {
                "next_instance": coordinator.next_instance,
                "positions_decided": coordinator.positions_decided,
                "leading": coordinator.leading,
            }
        if self.client is not None:
            health["client"] = {"submitted": self.submitted}
        return health

    def replica_states(self) -> dict:
        """Per replica: Σ, merge cursors and deliveries so far (counted
        by the attached invariant suite)."""
        logs = self.invariants.logs if self.invariants is not None else {}
        return {
            name: {
                "subscriptions": list(replica.subscriptions),
                "positions": dict(replica.merger.positions()),
                "delivered": len(logs[name].records) if name in logs else 0,
                "pending_subscription": (
                    replica.merger.pending_subscription is not None
                ),
            }
            for name, replica in self.replicas.items()
        }

    # -- workload -----------------------------------------------------

    def require_client(self) -> MulticastClient:
        if self.client is None:
            raise ValueError(f"node {self.name} hosts no client")
        return self.client

    def multicast(self, stream: str, payload: Any, size: int) -> AppValue:
        """Submit one value through this node's client, timed by the
        latency tap when a local replica delivers it."""
        value = self.require_client().multicast(
            stream, payload=payload, size=size
        )
        self.submit_at[value.msg_id] = self._loop.time()
        self.submitted += 1
        return value

    def subscribe_msg(self, stream: str, via: Optional[str] = None) -> int:
        """Ask the group to subscribe to ``stream`` at runtime, ordered
        through ``via`` (default: the first initial stream); returns
        the request id the ``control.subscribe`` trace event carries."""
        return self.require_client().subscribe_msg(
            self.group, stream, via_stream=via or self.initial_streams[0]
        )

    async def workload(
        self,
        duration: float,
        rate: float,
        burst: int = 1,
        payload_size: int = 64,
        rate_end: Optional[float] = None,
    ) -> None:
        """Submit ``rate`` values/s (ramping linearly to ``rate_end``)
        for ``duration`` wall seconds, round robin over
        :attr:`active_streams` -- read per value, so a stream appended
        mid-run takes traffic from the next value on.  Submissions go
        out ``burst`` at a time: above a few thousand values/s one
        sleep per message can't keep up (timer granularity)."""
        loop = self._loop
        start = loop.time()
        end = start + duration
        sequence = 0
        while loop.time() < end:
            for _ in range(burst):
                streams = self.active_streams
                self.multicast(
                    streams[sequence % len(streams)], f"m{sequence}",
                    payload_size,
                )
                sequence += 1
            now_rate = rate
            if rate_end is not None:
                elapsed = min(1.0, (loop.time() - start) / duration)
                now_rate = rate + elapsed * (rate_end - rate)
            await asyncio.sleep(burst / now_rate if now_rate > 0 else duration)


class NodeOps:
    """The op table of one :class:`LiveNode`: every way a run driver
    (:mod:`repro.runtime.driver`) touches a node, as ``await
    ops.call(op, **params)`` returning a JSON-able dict.  The in-process
    cluster awaits it directly; a worker process serves the very same
    calls off its control socket (extending ``start`` / ``stop`` /
    ``status`` with what only a process of its own has).
    docs/RUNTIME.md, "Run driver", tables the ops."""

    def __init__(
        self,
        node: LiveNode,
        workload: "WorkloadSpec",
        flight_path: Optional[str] = None,
    ):
        self.node = node
        self.workload = workload
        # Where this node's causal ring is dumped (needs telemetry).
        self.flight_path = flight_path
        self.identity = {
            "node": node.name, "trace_node": node.trace_node,
            "pid": os.getpid(),
        }
        self.started = False
        self.violations: list[str] = []
        self._workload_task: Optional[asyncio.Task] = None

    async def call(self, op: str, timeout: float = 10.0, **params: Any) -> dict:
        # ``timeout`` is the remote reach's; an in-loop call cannot hang.
        handler = getattr(self, f"op_{op.replace('-', '_')}", None)
        if handler is None:
            raise ValueError(f"unknown control op {op!r}")
        return handler(**params)

    # -- wiring -------------------------------------------------------

    def op_hello(self) -> dict:
        node = self.node
        return {
            **self.identity,
            "hosts": node.transport.hosts(),
            "transport": list(node.transport.address or ()),
            "telemetry": list(node.endpoint) if node.endpoint else None,
            "trace": node.telemetry.trace_path if node.telemetry else None,
            "started": self.started,
        }

    def op_register(self, addresses: dict) -> dict:
        for name, address in addresses.items():
            self.node.transport.register_address(
                name, (address[0], int(address[1]))
            )
        return {"registered": len(addresses)}

    def op_clock(self) -> dict:
        return {"node": self.node.name, "now": self.node.kernel._now}

    def op_clock_mark(self, ref: str, offset: float, rtt: float = 0.0) -> dict:
        # ``repro trace-merge`` aligns on the last mark of each trace; a
        # node without a trace of its own has nothing to stamp.
        if self.node.telemetry is not None:
            self.node.telemetry.tracer.emit(
                "meta.clock", self.node.kernel._now, cat="meta",
                ref=ref, offset=float(offset), rtt=float(rtt),
            )
        return {}

    def op_start(self) -> dict:
        if self.started:
            return {"already": True}
        self.started = True
        self.node.start()
        return {"already": False}

    def op_stop(self) -> dict:
        if self._workload_task is not None:
            self._workload_task.cancel()
        self.node.stop_actors()     # sockets stay open: the caller closes
        return {}

    # -- workload -----------------------------------------------------

    def op_workload(self, rate_end: Optional[float] = None) -> dict:
        """Start the spec's paced client workload as a task of its own
        (ramping linearly to ``rate_end`` when given)."""
        self.node.require_client()
        if self._workload_task is not None and not self._workload_task.done():
            raise ValueError("workload already running")
        spec = self.workload
        self._workload_task = asyncio.ensure_future(self.node.workload(
            spec.duration, spec.rate, burst=spec.burst,
            payload_size=spec.payload_size, rate_end=rate_end,
        ))
        return {"duration": spec.duration, "rate": spec.rate}

    def op_activate(self, streams: list) -> dict:
        if not streams:
            raise ValueError("activate needs a non-empty stream list")
        self.node.active_streams[:] = streams
        return {"active": list(streams)}

    def op_subscribe(self, stream: str, via: Optional[str] = None) -> dict:
        return {"request_id": self.node.subscribe_msg(stream, via=via)}

    def op_unsubscribe(self, stream: str, via: Optional[str] = None) -> dict:
        return {"request_id": self.node.require_client().unsubscribe_msg(
            self.node.group, stream, via_stream=via
        )}

    # -- observation --------------------------------------------------

    def op_check(self) -> dict:
        """Fold what the local replicas delivered since the last call
        into the attached invariant suite.  The first violation is
        terminal: it is kept and this node's causal ring dumped."""
        suite = self.node.invariants
        if suite is not None and not self.violations:
            try:
                suite.check()
            except InvariantViolation as violation:
                self.violations.append(str(violation))
                self.op_flight_dump(label=str(violation))
        return {"violations": list(self.violations)}

    def op_status(self) -> dict:
        """The cheap poll: no sample is sorted and no check run here."""
        node = self.node
        suite = node.invariants
        task = self._workload_task
        done = task is not None and task.done()
        if done and not task.cancelled():
            task.result()       # a crashed workload fails the run loudly
        return {
            **self.identity,
            "started": self.started,
            "submitted": node.submitted,
            "workload_done": done,
            "active_streams": list(node.active_streams),
            "replicas": node.replica_states(),
            "invariant_checks": suite.checks_run if suite else 0,
            "records_checked": suite.spec.folded if suite else 0,
            "violations": list(self.violations),
            "kernel_failures": [
                repr(failure) for failure in node.kernel.failures
            ],
            "transport": node.transport.counters(),
        }

    def op_sequences(self) -> dict:
        logs = self.node.invariants.logs if self.node.invariants else {}
        return {"sequences": {
            name: logs[name].sequence()
            for name in self.node.replicas if name in logs
        }}

    def op_metrics(self) -> dict:
        """Asked once, at collection: the node's own registry (``None``
        without telemetry -- a process-wide registry is not one node's
        to report) and the latency percentiles of what its client sent."""
        node = self.node
        return {
            "dump": node.telemetry.registry.dump() if node.telemetry else None,
            "latency_p50_ms": percentile(node.latencies_ms, 50),
            "latency_p99_ms": percentile(node.latencies_ms, 99),
        }

    def op_flight_dump(self, label: str = "requested by the run driver") -> dict:
        if self.node.telemetry is None or self.flight_path is None:
            return {"path": None, "events": 0}
        os.makedirs(os.path.dirname(self.flight_path) or ".", exist_ok=True)
        events = self.node.telemetry.dump_flight(self.flight_path, header={
            "message": label, "ts": self.node.kernel._now,
        })
        return {"path": self.flight_path, "events": events}

    def op_flush(self) -> dict:
        # The online certifier tails this node's trace while it runs;
        # flushing on request lets it certify the complete timeline
        # *before* the process is torn down.
        telemetry = self.node.telemetry
        return {"written": telemetry.flush_trace() if telemetry else 0}

    # -- fault injection (deployment chaos plane) ---------------------

    def op_partition(self, peers: list, blocked: bool = True) -> dict:
        self.node.transport.set_partition(list(peers), blocked=bool(blocked))
        return {"partitioned": self.node.transport.partitioned_peers()}

    def op_skew(self, delta: float) -> dict:
        # Shift this kernel's clock forward by delta seconds, the live
        # analogue of the PR 1 clock-skew fault (AsyncioKernel derives
        # `now` from `_t0`, so one adjustment skews everything).
        self.node.kernel._t0 -= float(delta)
        return {"now": self.node.kernel._now}
