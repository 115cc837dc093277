"""Wires a fault scenario into a simulated cluster and runs it.

:class:`ScenarioRunner` assembles a
:class:`repro.harness.cluster.MulticastCluster` from a
:class:`repro.faults.scenarios.ScenarioSpec`, attaches the
:class:`repro.faults.invariants.InvariantSuite` to every replica,
starts paced workload and periodic checkpointing, arms the fault
schedule on a :class:`repro.faults.orchestrator.FaultOrchestrator`
(replica recovery goes through the latest checkpoint, exactly the
paper's crash-recovery model), and checks every safety invariant on a
timer during the run plus once at the end.

The whole run is deterministic: one ``(scenario, seed)`` pair yields a
bit-identical delivery history, reported as a digest so regressions --
and chaos-found bugs -- reproduce exactly.  The digest is the runner's,
not the suite's (whose logs keep ids, not payloads): a
:class:`DeliveryDigest` per replica hashes the payloads as runs are
delivered, and a checkpoint and a recovery copy and restore it as they
mark and rewind the suite's log.

Flight recording on demand: a run traces nothing of its own.  When an
invariant fires, the same run is rebuilt (constructor call and id
counter) with a :class:`repro.obs.recorder.FlightRecorder` ring, run to
the failure, and the ring dumped to ``$REPRO_FLIGHT_DIR`` (default
``flight-recordings/``) as ``<scenario>-seed<seed>.jsonl``; the
exception's ``dump_path`` names it.  A replay that fails otherwise is a
determinism finding, and the message carries both verdicts.  Under an
external tracer (the CLI's ``trace``) the ring rides along inline.

:class:`CheckedRun` is the part of that a closed-loop elasticity run
(:mod:`repro.elasticity.scenarios`) shares: it owns the recorder, the
cluster, the suite, the orchestrator, the check timer, the flight dump
and the final verdict; :class:`ScenarioRunner` adds checkpointing, the
paced load and the scripted control operations.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..harness.cluster import MulticastCluster
from ..obs.recorder import FlightRecorder
from ..obs.trace import Tracer, current_tracer, installed
from ..paxos import types
from ..runtime.kernel import every
from ..storage.checkpoint import CheckpointStore
from ..storage.snapshot import structural_copy
from .invariants import InvariantSuite, InvariantViolation
from .orchestrator import FaultOrchestrator
from .scenarios import ScenarioSpec
from .schedule import Schedule

__all__ = ["CheckedRun", "DeliveryDigest", "ScenarioResult", "ScenarioRunner"]

FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"
DEFAULT_FLIGHT_DIR = "flight-recordings"
_CHECK_INTERVAL = 0.25       # virtual seconds between invariant checks
_CHECKPOINT_INTERVAL = 0.25  # virtual seconds between replica checkpoints


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (invariants all held if it exists --
    a violation raises :class:`~repro.faults.invariants.InvariantViolation`
    out of :meth:`ScenarioRunner.run` instead)."""

    scenario: str
    seed: int
    duration: float
    schedule: Schedule
    delivered: dict[str, int]
    checks_run: int
    digest: str
    timeline: list[tuple[float, str]] = field(default_factory=list)
    report_text: str = ""

    def report(self) -> str:
        return self.report_text


class DeliveryDigest:
    """A rolling sha256 over one replica's delivered values,
    ``stream:position:payload!r;`` each, fed as runs arrive (``observe``
    is a run observer).  ``mark()`` copies it, at a checkpoint;
    ``rewind()`` restores that copy, when the replica recovers from the
    checkpoint and the log rewinds to its mark."""

    __slots__ = ("hasher", "_marked")

    def __init__(self):
        self.hasher = hashlib.sha256()
        self._marked = self.hasher.copy()

    def observe(self, stream: str, first: int, values) -> None:
        self.hasher.update("".join([
            f"{stream}:{position}:{value.payload!r};"
            for position, value in enumerate(values, first)
        ]).encode())

    def mark(self) -> None:
        self._marked = self.hasher.copy()

    def rewind(self) -> None:
        self.hasher = self._marked.copy()

    def hexdigest(self) -> str:
        return self.hasher.hexdigest()


class CheckedRun:
    """A simulated cluster run under the invariant suite (module
    docstring), deployed from ``spec.topology``.  A subclass drives its
    own workload from ``run()``, which a replay calls."""

    def __new__(cls, *args, **kwargs):
        run = super().__new__(cls)
        # What a replay rebuilds the run from: the constructor call, and
        # the id the process-global counter hands out next.
        run._rebuild = (args, kwargs, types.next_value_id())
        return run

    def __init__(self, spec, seed: int, schedule: Schedule, metrics=None):
        self.spec = spec
        self.seed = seed
        self.schedule = schedule
        # A ring only on an installed tracer (the CLI's trace command,
        # or a replay's), which the environment adopts at construction.
        self.tracer = current_tracer()
        self.recorder: Optional[FlightRecorder] = None
        if self.tracer is not None:
            self.recorder = FlightRecorder()
            self.tracer.add_sink(self.recorder)
        topology = spec.topology
        with installed(metrics=metrics):
            self.cluster = MulticastCluster(
                streams=topology.streams, seed=seed,
                n_acceptors=topology.acceptors_per_stream,
                **topology.stream_knobs(),
            )
        for stream in topology.failover:
            self.cluster.directory[stream].enable_failover()
        for group in sorted(topology.groups):
            for name in topology.replicas_of(group):
                self.cluster.add_replica(name, group,
                                         list(topology.groups[group]))
        self.suite = InvariantSuite(self.cluster.replicas)
        self.digests: dict[str, DeliveryDigest] = {}
        for name in sorted(self.cluster.replicas):
            digest = self.digests[name] = DeliveryDigest()
            self.cluster.replicas[name].add_run_observer(digest.observe)
        self.orchestrator = FaultOrchestrator(self.cluster.env,
                                              self.cluster.network)

    @property
    def label(self) -> str:
        """The scenario's name in reports and flight recordings."""
        return self.spec.name

    # -- flight recording -----------------------------------------------

    def dump_flight_recording(self, violation: InvariantViolation) -> str:
        """Write the ring buffer to the flight dir; returns the path."""
        directory = os.environ.get(FLIGHT_DIR_ENV, DEFAULT_FLIGHT_DIR)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"{self.label.replace('/', '-')}-seed{self.seed}.jsonl"
        )
        header = {
            "ts": self.cluster.env.now,
            "message": str(violation),
            "scenario": self.label,
            "seed": self.seed,
        }
        if violation.msg_id is not None:
            header["msg_id"] = violation.msg_id
        self.recorder.dump(path, header=header)
        return path

    def _replay(self, violation: InvariantViolation) -> str:
        """Rebuild this run with a ring, run it to the same failure and
        dump that ring (module docstring); returns the path."""
        args, kwargs, first_id = self._rebuild
        resume = types.next_value_id()
        types.rewind_value_ids(first_id)
        with installed(Tracer()):
            replay = type(self)(*args, **kwargs)
        verdict, path = "no failure", None
        try:
            replay.run()
        except Exception as failure:
            verdict = f"t={replay.cluster.env.now:.6f}s: {failure}"
            path = getattr(failure, "dump_path", None)
        types.rewind_value_ids(resume)
        self.recorder = replay.recorder
        if verdict == f"t={self.cluster.env.now:.6f}s: {violation}":
            return path
        # A determinism finding: never hidden, both verdicts reported.
        violation.args = (f"{violation}; its replay: {verdict}",)
        return replay.dump_flight_recording(violation)

    # -- running --------------------------------------------------------

    def _run_checked(self, duration: float,
                     arm: Optional[Callable[[], None]] = None) -> None:
        """Arm the periodic check, then ``arm``, then the fault schedule;
        run to ``duration``, check once more and assert that the groups
        converged.  A violation dumps the flight recording and
        re-raises."""
        env = self.cluster.env
        every(env, _CHECK_INTERVAL, self.suite.check)
        if arm is not None:
            arm()
        self.orchestrator.execute(self.schedule)
        try:
            env.run(until=duration)
            self.suite.check()
            self.suite.assert_converged()
        except InvariantViolation as violation:
            # Ship the causal history with the failure: dump the ring --
            # this run's, or a replay's -- next to it and re-raise.
            violation.dump_path = (
                self._replay(violation) if self.recorder is None
                else self.dump_flight_recording(violation)
            )
            raise

    def digest(self) -> str:
        """Stable hash over every replica's delivered payloads."""
        hasher = hashlib.sha256()
        for name in sorted(self.digests):
            hasher.update(name.encode())
            hasher.update(self.digests[name].hexdigest().encode())
        return hasher.hexdigest()

    def delivered(self) -> dict[str, int]:
        """Deliveries per replica, by replica name."""
        logs = self.suite.logs
        return {name: logs[name].delivered for name in sorted(logs)}


class ScenarioRunner(CheckedRun):
    """Builds, runs and checks one fault scenario."""

    def __init__(self, spec: ScenarioSpec, seed: int = 1):
        super().__init__(spec, seed, spec.schedule(seed))
        self.checkpoints: dict[str, CheckpointStore] = {}
        for name in self.cluster.replicas:
            self.checkpoints[name] = CheckpointStore(keep=2)
            self.orchestrator.recover_hooks[name] = self._recover_hook(name)
        self._save_checkpoints()   # a recovery point exists from t=0

    # -- checkpointing (the crash-recovery model's stable storage) ------

    def _save_checkpoints(self) -> None:
        """Checkpoint every live replica, whatever it is doing; each
        checkpoint's position is the replica's delivery-log mark."""
        for name, replica in self.cluster.replicas.items():
            if not replica.crashed:
                self.checkpoints[name].save(self.suite.mark(name),
                                            replica.make_checkpoint())
                self.digests[name].mark()

    def _recover_hook(self, name: str):
        def recover() -> None:
            replica = self.cluster.replicas[name]
            if not replica.crashed:
                return
            checkpoint = self.checkpoints[name].latest()
            self.suite.rewind(name, checkpoint.position)
            self.digests[name].rewind()
            replica.recover_from_checkpoint(structural_copy(checkpoint.state))

        return recover

    # -- load -----------------------------------------------------------

    def _load(self, stream: str, until: float, index: int = 0) -> None:
        """One value of ``stream``'s load loop, then re-arm it, until
        ``until``."""
        env = self.cluster.env
        if env.now >= until:
            return
        self.cluster.client.multicast(stream, payload=(stream, index))
        interval = 1.0 / self.spec.load_rate
        share = self.spec.load_share
        # share is None on the legacy path: the constant interval keeps
        # pre-existing scenarios' digests byte-identical.
        delay = interval if share is None else (
            interval / max(share(stream, env.now), 1e-9))
        env.call_later(delay, self._load, stream, until, index + 1)

    def _arm_control(self) -> None:
        client = self.cluster.client
        for op in self.spec.control:   # subscribe, prepare, unsubscribe
            send = getattr(client, f"{op.kind}_msg")
            self.cluster.env.call_at(op.at, send, op.group, op.stream, op.via)

    # -- running --------------------------------------------------------

    def run(self) -> ScenarioResult:
        spec = self.spec
        env = self.cluster.env
        load_until = spec.load_until()
        for stream in spec.topology.streams:
            env.call_later(0.0, self._load, stream, load_until)
        every(env, _CHECKPOINT_INTERVAL, self._save_checkpoints)
        self._run_checked(spec.duration, self._arm_control)
        result = ScenarioResult(
            scenario=spec.name,
            seed=self.seed,
            duration=spec.duration,
            schedule=self.schedule,
            delivered=self.delivered(),
            checks_run=self.suite.checks_run,
            digest=self.digest(),
            timeline=list(self.orchestrator.events),
        )
        result.report_text = self._render_report(result)
        return result

    def _render_report(self, result: ScenarioResult) -> str:
        lines = [
            f"scenario             : {result.scenario} (seed {result.seed})",
            f"description          : {self.spec.description}",
            f"schedule             : {len(self.schedule)} fault action(s), "
            f"horizon {self.schedule.horizon:.2f}s of {result.duration:.2f}s",
        ]
        if result.timeline:
            lines.append("fault timeline       :")
            lines.extend(
                f"  t={at:7.3f}s  {text}" for at, text in result.timeline
            )
        lines.append(self.suite.report())
        lines.append(f"delivery digest      : {result.digest[:16]}")
        lines.append("converged            : yes (all replicas identical)")
        return "\n".join(lines)


def run_scenario(spec: ScenarioSpec, seed: int = 1) -> ScenarioResult:
    """Convenience: build a runner and run it once."""
    return ScenarioRunner(spec, seed=seed).run()
