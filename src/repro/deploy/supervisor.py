"""Deployment supervisor: real OS processes, one per node.

The supervisor is the only piece of the deployment plane that is *not*
inside a worker.  It writes the :class:`~repro.deploy.topology
.TopologySpec` to the run directory, spawns one ``python -m repro
worker`` child per node (or, with ``--address-file``, reaches
externally started workers on other machines) and hands one handle per
worker, the address of its node endpoint, to the run driver
(:mod:`repro.runtime.driver`), which wires, drives, drains and judges
the cluster exactly as it does an in-process one.  What stays here is
what only processes have:

* spawn / attach, ``kill -9``, supervised restart and reaping -- the
  ``crash`` a drill (:mod:`repro.deploy.chaos`) is played with;
* the online certifier tailing the workers' traces while they run;
* the run directory: ``topology.json``, per-incarnation traces, worker
  logs, ``metrics.json``, and a ``manifest.json`` recording per-node
  PIDs (distinct PIDs are the "really multi-process" acceptance check),
  restarts, trace files and the verdict.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

from ..runtime.driver import Outcome, RunDriver
from ..runtime.telemetry import http_json
from .chaos import SCENARIOS
from .topology import TopologySpec, load_address_file
from .worker import trace_node_name

__all__ = ["DeployConfig", "DeployReport", "DeploySupervisor", "WorkerHandle",
           "run_deploy"]

MANIFEST_FORMAT = "repro-deploy-manifest/1"

_READY_POLL = 0.05
_SPAWN_TIMEOUT = 20.0       # wall seconds to a worker's ready file
_WATCH_INTERVAL = 0.3       # online certifier poll period (wall s)


@dataclass
class DeployConfig:
    """Knobs of one deployment run."""

    spec: TopologySpec
    run_dir: str
    scenario: str = "baseline"
    address_file: Optional[str] = None   # remote workers instead of children
    verbose: bool = False


@dataclass
class DeployReport:
    """What a deployment run produced (CLI + tests consume this)."""

    ok: bool
    scenario: str
    run_dir: str
    manifest_path: str
    manifest: dict
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return "\n".join(self.lines)


class WorkerHandle:
    """One node's worker across its incarnations, reached at
    ``address``: its node endpoint, one HTTP request per op."""

    def __init__(self, name: str, remote: bool = False):
        self.name = name
        self.remote = remote
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        self.info: dict = {}              # latest hello
        self.incarnation = 0
        self.pids: list[int] = []         # one per incarnation, in order
        self.trace_files: list[str] = []
        self.log_path: Optional[str] = None

    async def call(self, op: str, timeout: float = 10.0, **params: Any) -> dict:
        return await http_json(*self.address, f"/op/{op}", params, timeout)


class DeploySupervisor:
    """Spawns, kills, restarts and reaps the worker fleet; ``driver``
    runs it (its ``handles`` are the workers alive right now)."""

    def __init__(self, config: DeployConfig):
        self.config = config
        self.spec = config.spec
        self.run_dir = config.run_dir
        os.makedirs(self.run_dir, exist_ok=True)
        self.spec_path = os.path.join(self.run_dir, "topology.json")
        self.workers: dict[str, WorkerHandle] = {}
        self.lines: list[str] = []
        self.driver = RunDriver(self.spec, {}, log=self.log)
        self.watch = None                    # TraceWatch when running
        self.audit_summary: Optional[dict] = None
        self._watch_task: Optional[asyncio.Task] = None

    def log(self, line: str) -> None:
        self.lines.append(line)
        if self.config.verbose:
            print(line, flush=True)

    # -- spawning -----------------------------------------------------

    def _child_env(self) -> dict:
        env = dict(os.environ)
        # Make the repro package importable in the child regardless of
        # how this process found it (PYTHONPATH=src, pip -e, cwd).
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        parts = [package_root]
        if env.get("PYTHONPATH"):
            parts.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        return env

    async def _spawn(self, name: str, incarnation: int) -> WorkerHandle:
        handle = self.workers.setdefault(name, WorkerHandle(name))
        handle.incarnation = incarnation
        trace_node = trace_node_name(name, incarnation)
        ready_path = os.path.join(self.run_dir, f"{trace_node}.ready.json")
        if os.path.exists(ready_path):
            os.unlink(ready_path)
        handle.log_path = os.path.join(self.run_dir, f"{name}.log")
        log_handle = open(handle.log_path, "ab")
        try:
            handle.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--spec", self.spec_path,
                    "--node", name,
                    "--run-dir", self.run_dir,
                    "--ready-file", ready_path,
                    "--incarnation", str(incarnation),
                ],
                stdout=log_handle, stderr=subprocess.STDOUT,
                env=self._child_env(),
            )
        finally:
            log_handle.close()     # the child holds its own descriptor
        deadline = asyncio.get_running_loop().time() + _SPAWN_TIMEOUT
        while not os.path.exists(ready_path):
            if handle.proc.poll() is not None:
                raise RuntimeError(
                    f"worker {name} exited with {handle.proc.returncode} "
                    f"before becoming ready (see {handle.log_path})"
                )
            if asyncio.get_running_loop().time() > deadline:
                handle.proc.kill()
                raise RuntimeError(
                    f"worker {name} did not become ready within "
                    f"{_SPAWN_TIMEOUT}s (see {handle.log_path})"
                )
            await asyncio.sleep(_READY_POLL)
        with open(ready_path, "r", encoding="utf-8") as fh:
            ready = json.load(fh)
        await self._greet(handle, ready["control"])
        self.log(
            f"worker {name} up: pid {handle.info['pid']}, "
            f"incarnation {incarnation}"
        )
        return handle

    async def _connect_remote(
        self, name: str, address: tuple[str, int]
    ) -> WorkerHandle:
        handle = self.workers.setdefault(name, WorkerHandle(name, remote=True))
        await self._greet(handle, address)
        handle.incarnation = int(handle.info.get("incarnation", 0))
        self.log(f"worker {name} attached at {address[0]}:{address[1]}")
        return handle

    async def _greet(self, handle: WorkerHandle, address: tuple) -> None:
        """Say ``hello`` at ``address`` and hand the worker to the
        driver: a spawned worker's from its ready file, a remote one's
        from the address file."""
        handle.address = tuple(address)
        handle.info = await handle.call("hello")
        handle.pids.append(int(handle.info["pid"]))
        if handle.info.get("trace"):
            handle.trace_files.append(handle.info["trace"])
        self.driver.handles[handle.name] = handle

    async def start_workers(self) -> None:
        """Write the spec and bring every worker up (spawn or attach)."""
        self.spec.save(self.spec_path)
        if self.config.address_file is not None:
            addresses = load_address_file(self.config.address_file)
            missing = {n.name for n in self.spec.nodes} - set(addresses)
            if missing:
                raise RuntimeError(
                    f"address file lacks workers for {sorted(missing)}"
                )
            for node in self.spec.nodes:
                await self._connect_remote(node.name, addresses[node.name])
        else:
            for node in self.spec.nodes:
                await self._spawn(node.name, incarnation=0)

    # -- what only processes have: the play's ``crash`` ----------------

    async def kill9(self, name: str) -> int:
        """SIGKILL the worker mid-flight; returns the dead PID."""
        handle = self.workers[name]
        if handle.remote or handle.proc is None:
            raise RuntimeError(
                f"cannot kill -9 remote worker {name}; run it locally"
            )
        pid = handle.proc.pid
        handle.proc.send_signal(signal.SIGKILL)
        handle.proc.wait()
        del self.driver.handles[name]
        self.log(f"kill -9 worker {name} (pid {pid})")
        return pid

    async def restart(self, name: str) -> int:
        """Respawn a killed worker as a fresh incarnation and have the
        driver wire it back in: new addresses everywhere (reviving
        parked peer links), a clock mark for its new trace, then
        ``start`` (the replica re-bootstraps and replays deliveries
        from position 1).  Returns the new PID."""
        handle = self.workers[name]
        await self._spawn(name, incarnation=handle.incarnation + 1)
        await self.driver.wire()
        self.log(f"worker {name} restarted as incarnation "
                 f"{handle.incarnation} (pid {handle.pids[-1]})")
        return handle.pids[-1]

    # -- online certification -----------------------------------------

    def start_watch(self) -> None:
        """Begin live certification: a :class:`repro.obs.watch
        .TraceWatch` tails the run directory's per-node traces while
        the scenario runs, proving the safety properties online and
        appending watchdog alerts to ``alerts.jsonl``."""
        from ..obs.watch import TraceWatch

        self.watch = TraceWatch(
            directory=self.run_dir,
            out=os.path.join(self.run_dir, "alerts.jsonl"),
        )
        self._watch_task = asyncio.create_task(self._watch_loop())
        self.log(f"online certifier watching {self.run_dir}")

    async def _watch_loop(self) -> None:
        while True:
            try:
                tick = self.watch.step()
            except Exception as exc:
                # The observer must never take down the run it observes.
                self.log(f"watch error (certifier stopped): {exc!r}")
                return
            for violation in tick["violations"]:
                self.log(f"AUDIT VIOLATION [{violation.property}] "
                         f"{violation.message}")
            for alert in tick["raised"]:
                self.log(f"alert [{alert.severity}] {alert.detector}"
                         f"{'/' + alert.key if alert.key else ''}: "
                         f"{alert.message}")
            for alert in tick["cleared"]:
                self.log(f"alert cleared {alert.detector}"
                         f"{'/' + alert.key if alert.key else ''}")
            await asyncio.sleep(_WATCH_INTERVAL)

    async def stop_watch(self) -> Optional[dict]:
        """Final drain + close of the live certifier; returns (and
        remembers, for the manifest) the audit summary.  Idempotent."""
        if self.watch is None:
            return None
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        if not self.watch.closed:
            # Buffered trace lines to disk first, so the certifier's
            # final drain sees the complete timeline (a tail-end
            # ``meta.clock`` or deliver would otherwise sit in a stdio
            # buffer until process exit).
            await self.driver.each("flush", tolerate=True)
            self.watch.drain()
            summary = self.watch.close()
            self.audit_summary = summary
            self.log(
                f"certifier: {summary['events']} events, "
                f"{len(summary['violations'])} safety violations, "
                f"{len(summary['alerts'])} alerts raised, "
                f"health {summary['health_score']}"
            )
        return self.audit_summary

    # -- collection / teardown ----------------------------------------

    def write_manifest(self, outcome: Outcome, timeline: list[dict]) -> str:
        """Metrics + manifest into the run directory; returns the
        manifest path.  The ``chaos`` block is the played ``timeline``,
        and for a crash its victim and both of its PIDs."""
        if outcome.metrics is not None:
            with open(os.path.join(self.run_dir, "metrics.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(outcome.metrics, fh, indent=2, sort_keys=True)
                fh.write("\n")
        statuses = outcome.statuses
        manifest = {
            "format": MANIFEST_FORMAT,
            "scenario": self.config.scenario,
            "spec": self.spec.to_json(),
            "nodes": {
                name: {
                    "pids": handle.pids,
                    "restarts": len(handle.pids) - 1,
                    "remote": handle.remote,
                    "alive": name in self.driver.handles,
                    "trace_files": handle.trace_files,
                    "log": handle.log_path,
                }
                for name, handle in self.workers.items()
            },
            "workload": {
                "submitted": statuses.get(
                    self.spec.client_node(), {}
                ).get("submitted"),
                "latency_p50_ms": outcome.latency_ms["p50"],
                "latency_p99_ms": outcome.latency_ms["p99"],
            },
            "transport": {
                name: status["transport"]
                for name, status in statuses.items()
            },
            # ok, agreement, subscribes, violations, kernel_failures,
            # flight_dumps: the verdict, as `repro live` reports it.
            **outcome.to_json(),
        }
        if self.audit_summary is not None:
            manifest["audit"] = self.audit_summary
        chaos = manifest["chaos"] = {
            "fault": self.config.scenario, "timeline": timeline,
        }
        for step in timeline:
            if step["op"] == "kill9":
                chaos.update(victim=step["target"], killed_pid=step["pid"])
            elif step["op"] == "restart":
                chaos["restarted_pid"] = step["pid"]
        manifest_path = os.path.join(self.run_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path

    async def stop_all(self) -> None:
        await self.driver.stop()
        self.driver.handles.clear()
        for handle in self.workers.values():
            if handle.proc is None or handle.proc.poll() is not None:
                continue
            deadline = asyncio.get_running_loop().time() + 5.0
            while (handle.proc.poll() is None
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.05)
            if handle.proc.poll() is None:
                handle.proc.kill()
                handle.proc.wait()


async def _run(config: DeployConfig) -> DeployReport:
    schedule, control = SCENARIOS[config.scenario].build(config.spec)
    sup = DeploySupervisor(config)
    driver = sup.driver
    try:
        await sup.start_workers()
        await driver.wire()
        # Every scenario runs under live certification: the online
        # auditor tails the traces while the chaos plays out.
        sup.start_watch()
        timeline = await driver.play(schedule, control, crash=sup)
        agreement = await driver.drain()
        outcome = await driver.collect(agreement, await sup.stop_watch())
        manifest_path = sup.write_manifest(outcome, timeline)
    finally:
        await sup.stop_watch()
        await sup.stop_all()
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sup.log(f"scenario {config.scenario}: "
            f"{'OK' if outcome.ok else 'FAILED'} -- {outcome.detail}")
    if outcome.client_dropped_backpressure:
        sup.log(f"client node DROPPED {outcome.client_dropped_backpressure} "
                f"at its send queue")
    sup.log(f"worker pids: "
            f"{ {name: h.pids for name, h in sup.workers.items()} }")
    sup.log(f"run directory: {config.run_dir}")
    return DeployReport(outcome.ok, config.scenario, config.run_dir,
                        manifest_path, manifest, sup.lines)


def run_deploy(config: DeployConfig) -> DeployReport:
    """Play one drill of :data:`repro.deploy.chaos.SCENARIOS` on a
    deployment, end to end (blocking entry point)."""
    return asyncio.run(_run(config))
