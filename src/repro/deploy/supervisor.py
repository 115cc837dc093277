"""Deployment supervisor: real OS processes, one per node.

The supervisor is the only piece of the deployment plane that is *not*
inside a worker: it writes the :class:`~repro.deploy.topology
.TopologySpec` to the run directory, spawns one ``python -m repro
worker`` child per node (or, with ``--address-file``, connects to
externally started workers on other machines), and drives the whole
lifecycle over the control RPC:

1. wait for each worker's ready file and say ``hello``;
2. broadcast the address map (every transport host name -> the owning
   worker's listener) so peers can dial each other;
3. NTP-style clock sync: estimate every worker's kernel-clock offset
   against the reference worker over ``clock`` round trips and have
   each worker stamp a ``meta.clock`` event into its own trace -- the
   alignment input ``repro trace-merge`` already consumes;
4. ``start`` everywhere, run the workload, inject chaos
   (:mod:`repro.deploy.chaos`), drain, and check *replica agreement
   across processes* -- the live acceptance criterion.

Worker-side invariant suites watch each node continuously; the
supervisor adds the cross-process check (identical delivery sequences
on every surviving replica) and broadcasts a flight-recorder dump
request only when something actually disagrees.

Everything observable lands in one run directory: ``topology.json``,
per-incarnation traces, worker logs, ``metrics.json``, and a
``manifest.json`` recording per-node PIDs (distinct PIDs are the
"really multi-process" acceptance check), restarts, trace files and
the agreement verdict.
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

from ..runtime.telemetry import (
    CLOCK_SYNC_SAMPLES,
    aggregate_dumps,
    estimate_offset,
)
from .control import ControlClient, ControlError
from .topology import TopologySpec, load_address_file
from .worker import trace_node_name

__all__ = ["DeployConfig", "DeployReport", "DeploySupervisor", "WorkerHandle"]

MANIFEST_FORMAT = "repro-deploy-manifest/1"

_READY_POLL = 0.05
_DRAIN_POLL = 0.3
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
    watch: bool = True                   # live online certifier over the run


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
    """One node's worker across its incarnations."""

    def __init__(self, name: str, remote: bool = False):
        self.name = name
        self.remote = remote
        self.proc: Optional[subprocess.Popen] = None
        self.control: Optional[ControlClient] = None
        self.info: dict = {}              # latest hello
        self.incarnation = 0
        self.restarts = 0
        self.pids: list[int] = []         # one per incarnation, in order
        self.trace_files: list[str] = []
        self.log_path: Optional[str] = None
        self.alive = False

    @property
    def hosts(self) -> list[str]:
        return list(self.info.get("hosts", ()))

    @property
    def transport_address(self) -> Optional[tuple[str, int]]:
        address = self.info.get("transport")
        return (address[0], int(address[1])) if address else None

    async def call(self, op: str, timeout: float = 10.0, **params: Any) -> dict:
        if self.control is None:
            raise ControlError(f"worker {self.name} has no control connection")
        return await self.control.call(op, timeout=timeout, **params)


class DeploySupervisor:
    """Spawns, wires, drives and reaps the worker fleet."""

    def __init__(self, config: DeployConfig):
        self.config = config
        self.spec = config.spec
        self.run_dir = config.run_dir
        os.makedirs(self.run_dir, exist_ok=True)
        self.spec_path = os.path.join(self.run_dir, "topology.json")
        self.workers: dict[str, WorkerHandle] = {}
        self.reference = self.spec.client_node()   # clock-sync anchor
        self.flight_dumps: list[str] = []
        self.lines: list[str] = []
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
        handle.control = ControlClient(*ready["control"])
        await handle.control.connect()
        handle.info = await handle.call("hello")
        handle.pids.append(int(handle.info["pid"]))
        if handle.info.get("trace"):
            handle.trace_files.append(handle.info["trace"])
        handle.alive = True
        self.log(
            f"worker {name} up: pid {handle.info['pid']}, "
            f"incarnation {incarnation}"
        )
        return handle

    async def _connect_remote(
        self, name: str, address: tuple[str, int]
    ) -> WorkerHandle:
        handle = self.workers.setdefault(name, WorkerHandle(name, remote=True))
        handle.control = ControlClient(*address)
        await handle.control.connect()
        handle.info = await handle.call("hello")
        handle.pids.append(int(handle.info["pid"]))
        if handle.info.get("trace"):
            handle.trace_files.append(handle.info["trace"])
        handle.incarnation = int(handle.info.get("incarnation", 0))
        handle.alive = True
        self.log(f"worker {name} attached at {address[0]}:{address[1]}")
        return handle

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

    # -- wiring -------------------------------------------------------

    def _address_map(self) -> dict[str, list]:
        """Transport host name -> owning worker's listener address."""
        addresses: dict[str, list] = {}
        for handle in self.workers.values():
            if not handle.alive:
                continue
            address = handle.transport_address
            if address is None:
                continue
            for host in handle.hosts:
                addresses[host] = [address[0], address[1]]
        return addresses

    async def broadcast_addresses(self) -> None:
        addresses = self._address_map()
        for handle in self.workers.values():
            if handle.alive:
                await handle.call("register", addresses=addresses)

    async def sync_clocks(self) -> None:
        """Estimate every worker's kernel-clock offset against the
        reference worker and have each stamp ``meta.clock``."""
        reference = self.workers[self.reference]
        if not reference.alive:
            # Reference down mid-scenario: skip; restart path re-syncs.
            return
        ref_node = reference.info.get("trace_node", reference.name)
        await reference.call(
            "clock_mark", ref=ref_node, offset=0.0, rtt=0.0
        )
        for handle in self.workers.values():
            if handle is reference or not handle.alive:
                continue
            samples = []
            try:
                for _ in range(CLOCK_SYNC_SAMPLES):
                    t0 = (await reference.call("clock"))["now"]
                    remote = (await handle.call("clock"))["now"]
                    t3 = (await reference.call("clock"))["now"]
                    samples.append((float(t0), float(remote), float(t3)))
                offset, rtt = estimate_offset(samples)
            except (ControlError, ValueError):
                offset, rtt = 0.0, float("inf")
            await handle.call(
                "clock_mark", ref=ref_node, offset=offset, rtt=rtt
            )

    async def start_all(self) -> None:
        for handle in self.workers.values():
            if handle.alive:
                await handle.call("start")

    async def wire(self) -> None:
        """Addresses + clocks + start: the worker fleet becomes a cluster."""
        await self.broadcast_addresses()
        await self.sync_clocks()
        await self.start_all()
        self.log(f"cluster wired: {len(self.workers)} workers, "
                 f"reference clock {self.reference}")

    # -- workload orchestration ---------------------------------------

    @property
    def client_worker(self) -> WorkerHandle:
        return self.workers[self.spec.client_node()]

    async def start_workload(self, **overrides: Any) -> None:
        await self.client_worker.call("workload", **overrides)

    async def wait_workload(self, timeout: float) -> bool:
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            status = await self.client_worker.call("status")
            if status.get("workload_done"):
                return True
            await asyncio.sleep(_DRAIN_POLL)
        return False

    async def subscribe(self, stream: str, via: str) -> int:
        response = await self.client_worker.call(
            "subscribe", stream=stream, via=via
        )
        return int(response["request_id"])

    async def unsubscribe(self, stream: str,
                          via: Optional[str] = None) -> int:
        response = await self.client_worker.call(
            "unsubscribe", stream=stream, via=via
        )
        return int(response["request_id"])

    async def activate(self, streams: list[str]) -> None:
        await self.client_worker.call("activate", streams=streams)

    async def wait_subscribed(self, stream: str, timeout: float,
                              subscribed: bool = True) -> bool:
        """Every live replica lists (or no longer lists) ``stream``."""
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            settled = True
            for handle in self.workers.values():
                if not handle.alive:
                    continue
                status = await handle.call("status")
                for state in status.get("replicas", {}).values():
                    has = stream in state.get("subscriptions", ())
                    if has != subscribed or state.get("pending_subscription"):
                        settled = False
            if settled:
                return True
            await asyncio.sleep(_DRAIN_POLL)
        return False

    # -- chaos primitives ---------------------------------------------

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
        handle.alive = False
        if handle.control is not None:
            await handle.control.close()
            handle.control = None
        self.log(f"kill -9 worker {name} (pid {pid})")
        return pid

    async def restart(self, name: str) -> WorkerHandle:
        """Respawn a killed worker as a fresh incarnation and splice it
        back in: new addresses everywhere (reviving parked peer links),
        a clock mark for its new trace, then ``start`` (the replica
        re-bootstraps and replays deliveries from position 1)."""
        handle = self.workers[name]
        handle.restarts += 1
        await self._spawn(name, incarnation=handle.incarnation + 1)
        addresses = self._address_map()
        for peer in self.workers.values():
            if peer.alive:
                await peer.call("register", addresses=addresses)
        await self.sync_clocks()
        await handle.call("start")
        self.log(f"worker {name} restarted as incarnation "
                 f"{handle.incarnation} (pid {handle.pids[-1]})")
        return handle

    async def set_partition(self, victim: str, blocked: bool = True) -> None:
        """Symmetric socket-level cut between ``victim`` and the rest."""
        victim_hosts = list(self.spec.hosts_of(victim))
        other_hosts = [
            host
            for node in self.spec.nodes if node.name != victim
            for host in self.spec.hosts_of(node.name)
        ]
        for handle in self.workers.values():
            if not handle.alive:
                continue
            peers = other_hosts if handle.name == victim else victim_hosts
            await handle.call("partition", peers=peers, blocked=blocked)
        self.log(f"partition {'up' if blocked else 'healed'}: "
                 f"{victim} <-> rest")

    async def skew(self, name: str, delta: float) -> None:
        await self.workers[name].call("skew", delta=delta)
        self.log(f"clock of {name} skewed by {delta:+.3f}s")

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

    async def flush_traces(self) -> None:
        """Ask every surviving worker to flush its buffered trace lines
        to disk, so the certifier's final drain sees the complete
        timeline (a tail-end ``meta.clock`` or deliver would otherwise
        sit in a stdio buffer until process exit)."""
        for handle in self.workers.values():
            if not handle.alive:
                continue
            try:
                await handle.call("flush")
            except ControlError:
                pass

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
            await self.flush_traces()
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

    # -- agreement ----------------------------------------------------

    async def gather_sequences(self) -> dict[str, list[tuple]]:
        sequences: dict[str, list[tuple]] = {}
        for handle in self.workers.values():
            if not handle.alive:
                continue
            response = await handle.call("sequences")
            for replica, entries in response.get("sequences", {}).items():
                sequences[replica] = [tuple(entry) for entry in entries]
        return sequences

    def _agreement(self, sequences: dict[str, list[tuple]]) -> tuple[bool, str]:
        if not sequences:
            return False, "no replicas reported sequences"
        names = sorted(sequences)
        reference = sequences[names[0]]
        if not reference:
            return False, f"replica {names[0]} delivered nothing"
        for name in names[1:]:
            if sequences[name] != reference:
                common = min(len(sequences[name]), len(reference))
                diverge = next(
                    (i for i in range(common)
                     if sequences[name][i] != reference[i]),
                    common,
                )
                return False, (
                    f"{name} diverges from {names[0]} at index {diverge} "
                    f"({len(sequences[name])} vs {len(reference)} values)"
                )
        return True, (
            f"{len(names)} replicas agree on {len(reference)} deliveries"
        )

    async def drain(self, timeout: Optional[float] = None) -> tuple[bool, str]:
        """Poll until every surviving replica reports the identical
        non-empty delivery sequence (or the timeout lapses)."""
        timeout = (
            timeout if timeout is not None
            else self.spec.workload.drain_timeout
        )
        deadline = asyncio.get_running_loop().time() + timeout
        verdict, detail = False, "never polled"
        while asyncio.get_running_loop().time() < deadline:
            verdict, detail = self._agreement(await self.gather_sequences())
            if verdict:
                self.log(f"drained: {detail}")
                return verdict, detail
            await asyncio.sleep(_DRAIN_POLL)
        self.log(f"drain timed out after {timeout}s: {detail}")
        return verdict, detail

    async def collect_violations(self) -> dict[str, list[str]]:
        violations: dict[str, list[str]] = {}
        for handle in self.workers.values():
            if not handle.alive:
                continue
            status = await handle.call("status")
            if status.get("violations"):
                violations[handle.name] = list(status["violations"])
        return violations

    async def dump_flights(self, label: str) -> list[str]:
        """Ask every surviving worker for a flight-recorder dump --
        called only on an actual violation/disagreement."""
        paths = []
        for handle in self.workers.values():
            if not handle.alive:
                continue
            try:
                response = await handle.call("flight_dump", label=label)
                paths.append(response["path"])
            except ControlError:
                pass
        self.flight_dumps.extend(paths)
        return paths

    # -- collection / teardown ----------------------------------------

    async def collect(self, ok: bool, agreement_detail: str,
                      extra: Optional[dict] = None) -> str:
        """Metrics + manifest into the run directory; returns the
        manifest path."""
        statuses: dict[str, dict] = {}
        dumps: dict[str, dict] = {}
        for handle in self.workers.values():
            if not handle.alive:
                continue
            try:
                statuses[handle.name] = await handle.call("status")
                dumps[handle.name] = (
                    await handle.call("metrics")
                )["dump"]
            except ControlError:
                pass
        if dumps:
            with open(os.path.join(self.run_dir, "metrics.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(aggregate_dumps(dumps), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
        client_status = statuses.get(self.spec.client_node(), {})
        manifest = {
            "format": MANIFEST_FORMAT,
            "scenario": self.config.scenario,
            "ok": ok,
            "spec": self.spec.to_json(),
            "nodes": {
                name: {
                    "pids": handle.pids,
                    "restarts": handle.restarts,
                    "remote": handle.remote,
                    "alive": handle.alive,
                    "trace_files": handle.trace_files,
                    "log": handle.log_path,
                }
                for name, handle in self.workers.items()
            },
            "workload": {
                "submitted": client_status.get("submitted"),
                "latency_p50_ms": client_status.get("latency_p50_ms"),
                "latency_p99_ms": client_status.get("latency_p99_ms"),
            },
            "agreement": {"ok": ok, "detail": agreement_detail},
            "violations": {
                name: status["violations"]
                for name, status in statuses.items()
                if status.get("violations")
            },
            "transport": {
                name: status.get("transport", {})
                for name, status in statuses.items()
            },
            "flight_dumps": self.flight_dumps,
        }
        if self.audit_summary is not None:
            manifest["audit"] = self.audit_summary
        if extra:
            manifest.update(extra)
        manifest_path = os.path.join(self.run_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path

    async def stop_all(self) -> None:
        for handle in self.workers.values():
            if handle.control is not None:
                try:
                    await handle.call("stop", timeout=5.0)
                except ControlError:
                    pass
                await handle.control.close()
                handle.control = None
        for handle in self.workers.values():
            if handle.proc is None or handle.proc.poll() is not None:
                handle.alive = False
                continue
            deadline = asyncio.get_running_loop().time() + 5.0
            while (handle.proc.poll() is None
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.05)
            if handle.proc.poll() is None:
                handle.proc.kill()
                handle.proc.wait()
            handle.alive = False
