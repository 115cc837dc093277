"""One deployment node as a real OS process: ``python -m repro worker``.

A worker is one :class:`~repro.runtime.node.LiveNode` -- the same
assembly ``repro live`` runs N of in one process -- hydrated from *its*
slice of the JSON topology spec (``--spec`` + ``--node``), plus what
only a process of its own needs: a
:class:`~repro.deploy.agent.DeployAgent` and
:class:`~repro.deploy.agent.RemoteStreamDeployment` stubs standing in
the stream directory for the streams other workers host, the control
RPC whose ops are thin calls onto the node, the ready file and SIGTERM.
Remote peers are joined through the transport's ``register_address``
hook; the supervisor distributes the address map over the control RPC,
which is also how a restarted worker's fresh port propagates.

Per-node telemetry is therefore the very plane ``repro live`` serves:
a node-stamped JSONL trace in the run directory, a metrics registry
(client latency and event-loop lag included), and the HTTP
``/metrics`` / ``/health`` / ``/clock`` / ``/profile`` endpoints.  The
worker attaches an :class:`InvariantSuite` over its local replicas and
checks it continuously; a violation dumps the flight-recorder ring
next to the traces (and only then -- a clean kill-9 drill produces no
dump).

Restart semantics: a respawned worker is a *new incarnation* -- fresh
kernel clock, fresh trace file (``<node>-r<k>.trace.jsonl``) and a
fresh tracer node id, so ``repro trace-merge`` aligns each
incarnation's clock domain independently instead of smearing one
offset across both lifetimes.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
from typing import Any, Optional

from ..faults.invariants import InvariantSuite, InvariantViolation
from ..runtime.node import CollectorPolicy, LiveNode, percentile
from .agent import DeployAgent, RemoteStreamDeployment
from .control import ControlServer
from .topology import TopologySpec

__all__ = ["DeployWorker", "worker_main"]

_INVARIANT_INTERVAL = 0.25


def trace_node_name(node: str, incarnation: int) -> str:
    """Tracer node id of one worker lifetime (see module docstring)."""
    return node if incarnation == 0 else f"{node}-r{incarnation}"


class DeployWorker:
    """One :class:`LiveNode` as a process, driven over the control RPC."""

    def __init__(
        self,
        spec: TopologySpec,
        node: str,
        run_dir: str,
        incarnation: int = 0,
        control_host: str = "127.0.0.1",
        control_port: int = 0,
        transport_host: str = "127.0.0.1",
    ):
        self.spec = spec
        self.run_dir = run_dir
        self.incarnation = incarnation
        self.trace_node = trace_node_name(node, incarnation)
        os.makedirs(run_dir, exist_ok=True)
        # The full stream directory: the node adds the deployments it
        # hosts, remote stubs stand in for everything else.  Every
        # worker sees every stream, so a replica can attach any of them.
        directory: dict[str, Any] = {}
        self.node = LiveNode.from_spec(
            spec, node, directory,
            bind_host=transport_host,
            trace_node=self.trace_node,
            telemetry_dir=run_dir,
            profile_path=(
                os.path.join(run_dir, f"{self.trace_node}.stacks.txt")
                if spec.profile else None
            ),
        )
        assert self.node.telemetry is not None
        self.telemetry = self.node.telemetry
        self.agent = DeployAgent(self.node.kernel, self.node.transport, node)
        for stream in spec.streams:
            if stream in self.node.deployments:
                self.agent.register_local(
                    stream, self.node.deployments[stream]
                )
            else:
                directory[stream] = RemoteStreamDeployment(
                    spec.stream_config(stream), self.agent,
                    spec.owner_of(stream),
                )
        self.invariants = (
            InvariantSuite(self.node.replicas) if self.node.replicas else None
        )
        self.node.invariants = self.invariants
        self.control = ControlServer(self._handle, bind_host=control_host,
                                     bind_port=control_port)
        self._started = False
        self._collector = CollectorPolicy()
        self._stop = asyncio.Event()
        self._workload_task: Optional[asyncio.Task] = None
        self._invariant_task: Optional[asyncio.Task] = None
        self.violations: list[str] = []
        self.flight_dumps: list[str] = []

    def _identity(self) -> dict:
        """Which process, which lifetime: on ready, hello and status."""
        return {
            "node": self.node.name,
            "trace_node": self.trace_node,
            "incarnation": self.incarnation,
            "pid": os.getpid(),
        }

    def _health(self) -> dict:
        return {
            **self.node.health(),
            "trace_node": self.trace_node,
            "pid": os.getpid(),
        }

    # -- control ops --------------------------------------------------

    async def _handle(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if handler is None:
            raise ValueError(f"unknown control op {op!r}")
        return await handler(request)

    async def _op_ping(self, request: dict) -> dict:
        return {"node": self.node.name, "now": self.node.kernel._now}

    _op_clock = _op_ping

    async def _op_hello(self, request: dict) -> dict:
        return {
            **self._identity(),
            **self._addresses(),
            "hosts": self.node.transport.hosts(),
            "trace": self.telemetry.trace_path,
            "started": self._started,
        }

    async def _op_register(self, request: dict) -> dict:
        for name, address in request.get("addresses", {}).items():
            self.node.transport.register_address(
                name, (address[0], int(address[1]))
            )
        return {"registered": len(request.get("addresses", {}))}

    async def _op_start(self, request: dict) -> dict:
        if self._started:
            return {"already": True}
        self._started = True
        self.agent.start()
        self.node.start()
        self._collector.apply()
        if self.invariants is not None:
            self._invariant_task = asyncio.ensure_future(
                self._invariant_loop()
            )
        return {"already": False}

    async def _op_workload(self, request: dict) -> dict:
        self.node.require_client()
        if self._workload_task is not None and not self._workload_task.done():
            raise ValueError("workload already running")
        workload = self.spec.workload
        duration = float(request.get("duration", workload.duration))
        rate = float(request.get("rate", workload.rate))
        if request.get("streams"):
            self.node.active_streams[:] = request["streams"]
        self._workload_task = asyncio.ensure_future(self.node.workload(
            duration, rate,
            burst=int(request.get("burst", workload.burst)),
            payload_size=int(
                request.get("payload_size", workload.payload_size)
            ),
        ))
        return {"duration": duration, "rate": rate}

    async def _op_activate(self, request: dict) -> dict:
        streams = list(request.get("streams", ()))
        if not streams:
            raise ValueError("activate needs a non-empty stream list")
        self.node.active_streams[:] = streams
        return {"active": streams}

    async def _op_subscribe(self, request: dict) -> dict:
        return {"request_id": self.node.subscribe_msg(
            request["stream"], via=request["via"]
        )}

    async def _op_unsubscribe(self, request: dict) -> dict:
        request_id = self.node.require_client().unsubscribe_msg(
            self.spec.group, request["stream"],
            via_stream=request.get("via"),
        )
        return {"request_id": request_id}

    async def _op_status(self, request: dict) -> dict:
        node = self.node
        task = self._workload_task
        return {
            **self._identity(),
            "started": self._started,
            "submitted": node.submitted,
            "workload_done": task is not None and task.done(),
            "active_streams": list(node.active_streams),
            "latency_p50_ms": percentile(node.latencies_ms, 50),
            "latency_p99_ms": percentile(node.latencies_ms, 99),
            "replicas": {
                name: {
                    **state,
                    "merge_points": {
                        str(request_id): list(point)
                        for request_id, point in
                        node.replicas[name].merger.stats.merge_points.items()
                    },
                }
                for name, state in node.replica_states().items()
            },
            "invariant_checks": (
                self.invariants.checks_run if self.invariants else 0
            ),
            "records_checked": (
                self.invariants.spec.folded if self.invariants else 0
            ),
            "violations": list(self.violations),
            "kernel_failures": [
                repr(failure) for failure in node.kernel.failures
            ],
            "transport": node.transport.counters(),
            "unreachable_peers": node.transport.unreachable_peers(),
            "agent": {
                "pending_joins": self.agent.pending_joins,
                "joins_failed": self.agent.joins_failed,
            },
        }

    async def _op_sequences(self, request: dict) -> dict:
        logs = self.invariants.logs if self.invariants is not None else {}
        return {
            "sequences": {
                name: [list(entry) for entry in log.sequence()]
                for name, log in logs.items()
            }
        }

    async def _op_partition(self, request: dict) -> dict:
        peers = list(request.get("peers", ()))
        blocked = bool(request.get("blocked", True))
        self.node.transport.set_partition(peers, blocked=blocked)
        return {"partitioned": self.node.transport.partitioned_peers()}

    async def _op_skew(self, request: dict) -> dict:
        # Shift this kernel's clock forward by delta seconds, the live
        # analogue of the PR 1 clock-skew fault (AsyncioKernel derives
        # `now` from `_t0`, so one adjustment skews everything).
        delta = float(request["delta"])
        self.node.kernel._t0 -= delta
        return {"now": self.node.kernel._now}

    async def _op_clock_mark(self, request: dict) -> dict:
        self.telemetry.tracer.emit(
            "meta.clock", self.node.kernel._now, cat="meta",
            ref=request["ref"], offset=float(request["offset"]),
            rtt=float(request.get("rtt", 0.0)),
        )
        return {}

    def _dump_flight(self, message: str) -> dict:
        path = os.path.join(
            self.run_dir, f"{self.trace_node}.flight.jsonl"
        )
        events = self.telemetry.dump_flight(path, header={
            "message": message, "ts": self.node.kernel._now,
        })
        if path not in self.flight_dumps:
            self.flight_dumps.append(path)
        return {"path": path, "events": events}

    async def _op_flight_dump(self, request: dict) -> dict:
        return self._dump_flight(
            request.get("label", "requested by supervisor")
        )

    async def _op_metrics(self, request: dict) -> dict:
        return {"dump": self.telemetry.registry.dump()}

    async def _op_flush(self, request: dict) -> dict:
        # The online certifier tails this worker's trace while it runs;
        # flushing on request lets the supervisor certify the complete
        # timeline *before* tearing the process down.
        self.telemetry.flush_trace()
        return {"written": (
            self.telemetry._jsonl.written
            if self.telemetry._jsonl is not None else 0
        )}

    async def _op_stop(self, request: dict) -> dict:
        self._stop.set()
        return {}

    # -- background loops ---------------------------------------------

    async def _invariant_loop(self) -> None:
        assert self.invariants is not None
        while True:
            await asyncio.sleep(_INVARIANT_INTERVAL)
            try:
                self.invariants.check()
            except InvariantViolation as violation:
                self.violations.append(str(violation))
                self._dump_flight(str(violation))
                return      # first violation is terminal; keep the dump

    # -- lifecycle ----------------------------------------------------

    async def run(self, ready_file: Optional[str] = None) -> None:
        await self.node.listen(health=self._health)
        await self.control.start()
        if ready_file is not None:
            self._write_ready(ready_file)
        try:
            await self._stop.wait()
        finally:
            await self._teardown()

    def _addresses(self) -> dict:
        return {
            "control": list(self.control.address or ()),
            "transport": list(self.node.transport.address or ()),
            "telemetry": (
                list(self.node.endpoint) if self.node.endpoint else None
            ),
        }

    def _write_ready(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({**self._identity(), **self._addresses()}, handle)
            handle.write("\n")
        os.replace(tmp, path)     # atomic: the supervisor polls for it

    async def _teardown(self) -> None:
        self._collector.restore()
        for task in (self._workload_task, self._invariant_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self.agent.stop()
        await self.node.close()         # flushes the trace + profile
        await self.control.stop()


async def _amain(args: argparse.Namespace) -> int:
    spec = TopologySpec.load(args.spec)
    worker = DeployWorker(
        spec,
        node=args.node,
        run_dir=args.run_dir,
        incarnation=args.incarnation,
        control_host=args.control_host,
        control_port=args.control_port,
        transport_host=args.transport_host,
    )
    # A polite SIGTERM (supervisor stop path, CI teardown) drains like
    # a control-plane stop; SIGKILL is, by design, un-catchable chaos.
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, worker._stop.set)
    except (NotImplementedError, RuntimeError):
        pass
    await worker.run(ready_file=args.ready_file)
    return 0


def worker_main(args: argparse.Namespace) -> int:
    """``python -m repro worker`` entry point."""
    return asyncio.run(_amain(args))
