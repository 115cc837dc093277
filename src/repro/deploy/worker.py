"""One deployment node as a real OS process: ``python -m repro worker``.

A worker is one :class:`~repro.runtime.node.LiveNode` -- the same
assembly ``repro live`` runs N of in one process -- hydrated from *its*
slice of the JSON topology spec (``--spec`` + ``--node``), serving the
node's op table (:class:`~repro.runtime.node.NodeOps`, the very calls
the in-process cluster makes directly) off a control socket, plus what
only a process of its own needs: a
:class:`~repro.deploy.agent.DeployAgent` and
:class:`~repro.deploy.agent.RemoteStreamDeployment` stubs standing in
the stream directory for the streams other workers host, an invariant
suite over its local replicas checked on a timer, the collector policy,
the ready file and SIGTERM.  Remote peers are joined through the
transport's ``register_address`` hook; the run driver distributes the
address map (``register``), which is also how a restarted worker's
fresh port propagates.

Per-node telemetry is therefore the very plane ``repro live`` serves:
a node-stamped JSONL trace in the run directory, a metrics registry
(client latency and event-loop lag included), and the HTTP
``/metrics`` / ``/health`` / ``/profile`` endpoints.  A violation dumps
the flight-recorder ring next to the traces (and only then -- a clean
kill-9 drill produces no dump).

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

from ..faults.invariants import InvariantSuite
from ..runtime.node import CollectorPolicy, LiveNode, NodeOps
from .agent import DeployAgent, RemoteStreamDeployment
from .control import ControlServer
from .topology import TopologySpec

__all__ = ["DeployWorker", "worker_main"]

_INVARIANT_INTERVAL = 0.25


def trace_node_name(node: str, incarnation: int) -> str:
    """Tracer node id of one worker lifetime (see module docstring)."""
    return node if incarnation == 0 else f"{node}-r{incarnation}"


class DeployWorker(NodeOps):
    """One :class:`LiveNode` as a process: its op table served over the
    control RPC, ``start`` / ``stop`` / ``status`` extended with what
    the process runs besides the node."""

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
        trace_node = trace_node_name(node, incarnation)
        os.makedirs(run_dir, exist_ok=True)
        # The full stream directory: the node adds the deployments it
        # hosts, remote stubs stand in for everything else.  Every
        # worker sees every stream, so a replica can attach any of them.
        directory: dict[str, Any] = {}
        super().__init__(
            LiveNode.from_spec(
                spec, node, directory,
                bind_host=transport_host,
                trace_node=trace_node,
                telemetry_dir=run_dir,
                profile_path=(
                    os.path.join(run_dir, f"{trace_node}.stacks.txt")
                    if spec.profile else None
                ),
            ),
            spec.workload,
            flight_path=os.path.join(run_dir, f"{trace_node}.flight.jsonl"),
        )
        self.identity["incarnation"] = incarnation
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
        if self.node.replicas:
            self.node.invariants = InvariantSuite(self.node.replicas)
        self.control = ControlServer(self._handle, bind_host=control_host,
                                     bind_port=control_port)
        self._collector = CollectorPolicy()
        self._stop = asyncio.Event()
        self._invariant_task: Optional[asyncio.Task] = None

    def _health(self) -> dict:
        return {**self.node.health(), **self.identity}

    # -- control ops: the node's, plus the process's ------------------

    async def _handle(self, request: dict) -> dict:
        return await self.call(**request)

    def op_start(self) -> dict:
        if self.started:
            return {"already": True}
        self.agent.start()
        response = super().op_start()
        self._collector.apply()
        if self.node.invariants is not None:
            self._invariant_task = asyncio.ensure_future(
                self._invariant_loop()
            )
        return response

    def op_status(self) -> dict:
        return {
            **super().op_status(),
            "agent": {
                "pending_joins": self.agent.pending_joins,
                "joins_failed": self.agent.joins_failed,
            },
        }

    def op_stop(self) -> dict:
        self._stop.set()        # run() tears the process down
        return super().op_stop()

    async def _invariant_loop(self) -> None:
        # A violation surfaces when it happens, not at collection.
        while not self.violations:
            await asyncio.sleep(_INVARIANT_INTERVAL)
            self.op_check()

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

    def _write_ready(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({
                **self.op_hello(),
                "control": list(self.control.address or ()),
            }, handle)
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
