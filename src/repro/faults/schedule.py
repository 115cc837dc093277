"""The fault-schedule DSL: declarative, seeded, reproducible.

A :class:`Schedule` is a named, immutable list of fault actions pinned
to absolute times.  Point actions (:class:`CrashAt`, :class:`RecoverAt`,
:class:`ClockStep`) fire once; window actions (:class:`PartitionWindow`,
:class:`LossWindow`, :class:`DelaySpike`, :class:`DuplicateWindow`,
:class:`ReorderWindow`) install a fault at ``start`` and lift it at
``end``; a run's control ops (:class:`ControlOp`) script its subscribes.
Schedules carry no behaviour of their own -- the simulator's
:class:`repro.faults.orchestrator.FaultOrchestrator` and a live
cluster's :meth:`repro.runtime.driver.RunDriver.play` (through
:func:`live_steps`) run them, and refuse what they cannot do exactly
with :class:`UnsupportedAction` -- so the same schedule object can be
rendered, compared and re-run bit-identically.

:class:`RandomChaos` derives a schedule from a seed: identical seed and
topology yield the identical schedule, which (on the deterministic
simulator) yields the identical run.  Failing seeds reproduce exactly;
see ``docs/FAULTS.md``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..deploy.topology import agent_host

__all__ = [
    "ClockStep",
    "ControlOp",
    "CrashAt",
    "DelaySpike",
    "DuplicateWindow",
    "FaultAction",
    "LossWindow",
    "PartitionWindow",
    "RandomChaos",
    "RecoverAt",
    "ReorderWindow",
    "Schedule",
    "UnsupportedAction",
    "live_steps",
]


@dataclass(frozen=True)
class CrashAt:
    """Crash ``target`` (a host/actor name) at time ``at``."""

    at: float
    target: str

    def describe(self) -> str:
        return f"crash {self.target}"


@dataclass(frozen=True)
class RecoverAt:
    """Recover ``target`` at time ``at`` (volatile state rebuilt from
    its latest checkpoint where the target supports one)."""

    at: float
    target: str

    def describe(self) -> str:
        return f"recover {self.target}"


@dataclass(frozen=True)
class ClockStep:
    """Step node ``target``'s clock by ``delta`` seconds at ``at``, like
    NTP slamming a drifted host.  Live only: the simulator's hosts share
    one clock."""

    at: float
    target: str
    delta: float

    def describe(self) -> str:
        return f"clock step {self.target} {self.delta:+.3f}s"


@dataclass(frozen=True)
class ControlOp:
    """One scripted dynamic-subscription operation."""

    at: float
    kind: str                      # "subscribe" | "unsubscribe" | "prepare"
    group: str
    stream: str
    via: Optional[str] = None      # carrier stream (defaults per kind)

    def __post_init__(self) -> None:
        if self.kind not in ("subscribe", "unsubscribe", "prepare"):
            raise ValueError(f"unknown control op kind {self.kind!r}")
        if self.kind in ("subscribe", "prepare") and self.via is None:
            raise ValueError(f"{self.kind} needs a carrier stream (via=...)")

    def describe(self) -> str:
        return f"{self.kind} {self.group} {self.stream}"


@dataclass(frozen=True)
class PartitionWindow:
    """Cut all traffic between the two host groups during [start, end)."""

    start: float
    end: float
    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"partition {{{', '.join(self.side_a)}}} | "
            f"{{{', '.join(self.side_b)}}}"
        )


@dataclass(frozen=True)
class LossWindow:
    """Drop matching messages with probability ``loss`` during the window.

    ``src``/``dst`` restrict the window to directed traffic between the
    named host sets; ``None`` matches any host.
    """

    start: float
    end: float
    loss: float
    src: Optional[tuple[str, ...]] = None
    dst: Optional[tuple[str, ...]] = None

    def describe(self) -> str:
        return f"loss {self.loss:.0%} {_link_str(self.src, self.dst)}"


@dataclass(frozen=True)
class DelaySpike:
    """Add ``extra_latency`` to matching messages during the window."""

    start: float
    end: float
    extra_latency: float
    src: Optional[tuple[str, ...]] = None
    dst: Optional[tuple[str, ...]] = None

    def describe(self) -> str:
        return (
            f"delay +{self.extra_latency * 1000:.1f}ms "
            f"{_link_str(self.src, self.dst)}"
        )


@dataclass(frozen=True)
class DuplicateWindow:
    """Deliver a second copy of matching messages with ``probability``.

    Duplicates trail the original by up to ``spread`` seconds and are
    exempt from the per-link FIFO guarantee -- the protocol stack must
    deduplicate (Paxos instance numbers make every layer idempotent).
    """

    start: float
    end: float
    probability: float
    spread: float = 0.005
    src: Optional[tuple[str, ...]] = None
    dst: Optional[tuple[str, ...]] = None

    def describe(self) -> str:
        return (
            f"duplicate {self.probability:.0%} "
            f"{_link_str(self.src, self.dst)}"
        )


@dataclass(frozen=True)
class ReorderWindow:
    """Let matching messages escape FIFO by up to ``spread`` seconds
    with ``probability`` (bounded reordering)."""

    start: float
    end: float
    probability: float
    spread: float = 0.005
    src: Optional[tuple[str, ...]] = None
    dst: Optional[tuple[str, ...]] = None

    def describe(self) -> str:
        return (
            f"reorder {self.probability:.0%} (±{self.spread * 1000:.1f}ms) "
            f"{_link_str(self.src, self.dst)}"
        )


def _link_str(src, dst) -> str:
    a = ",".join(src) if src else "*"
    b = ",".join(dst) if dst else "*"
    return f"{a}->{b}"


FaultAction = Union[
    CrashAt,
    RecoverAt,
    ClockStep,
    PartitionWindow,
    LossWindow,
    DelaySpike,
    DuplicateWindow,
    ReorderWindow,
]

_POINT_ACTIONS = (CrashAt, RecoverAt, ClockStep)


@dataclass(frozen=True)
class Schedule:
    """A named, validated fault plan in absolute virtual time."""

    name: str
    actions: tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        for action in self.actions:
            if isinstance(action, _POINT_ACTIONS):
                if action.at < 0:
                    raise ValueError(f"{action} fires before t=0")
            else:
                if action.start < 0 or action.end <= action.start:
                    raise ValueError(f"{action} has an empty or negative window")

    @property
    def horizon(self) -> float:
        """Time of the last scheduled effect (0.0 for an empty plan)."""
        times = [
            action.at if isinstance(action, _POINT_ACTIONS) else action.end
            for action in self.actions
        ]
        return max(times, default=0.0)

    def events(self) -> list[tuple[float, str]]:
        """Chronological ``(time, description)`` pairs for reporting."""
        out: list[tuple[float, str]] = []
        for action in self.actions:
            if isinstance(action, _POINT_ACTIONS):
                out.append((action.at, action.describe()))
            else:
                out.append((action.start, "begin " + action.describe()))
                out.append((action.end, "end " + action.describe()))
        return sorted(out, key=lambda pair: pair[0])

    def __len__(self) -> int:
        return len(self.actions)


class UnsupportedAction(ValueError):
    """``action`` asks for what ``shape`` (the simulator, or an
    in-process or multi-process live cluster) cannot do exactly.  Raised
    before the run starts: no backend approximates an action."""

    def __init__(self, action, shape: str, why: str):
        super().__init__(f"{action.describe()}: the {shape} cannot run it "
                         f"({why})")
        self.action = action
        self.shape = shape


def live_steps(schedule: Schedule, control: tuple[ControlOp, ...],
               hosts: dict[str, tuple[str, ...]], groups: Iterable[str],
               shape: str, crash: bool) -> list[tuple[float, str, str, tuple]]:
    """``schedule`` and ``control`` as the steps a live cluster runs,
    ``(at, op, target, args)``, in time order; at one instant a control
    op first, as on the simulator (whose runner arms them first).
    ``hosts``: each node's transport hosts; ``groups``: the topology's;
    ``crash``: a supervisor kills and restarts nodes."""

    def refuse(action, why: str):
        raise UnsupportedAction(action, shape, why)

    owner = {host: node for node, names in hosts.items() for host in names}
    # A node's deploy agent goes with its node: a shape that runs none
    # (the in-process cluster) cuts it from nothing.
    absent = {agent_host(node) for node in hosts} - set(owner)

    def nodes_of(action, side: tuple[str, ...]) -> set[str]:
        side = set(side) - absent
        if not side <= set(owner):
            refuse(action, f"no node carries {sorted(side - set(owner))}")
        nodes = {owner[host] for host in side}
        if side != {host for node in nodes for host in hosts[node]}:
            refuse(action, "it splits a node's hosts: a socket-level cut "
                           "is between whole nodes")
        return nodes

    steps = []
    for op in control:
        if op.kind == "prepare":
            refuse(op, "the live client sends no prepare_msg")
        if op.group not in groups:
            refuse(op, f"its groups are {sorted(groups)}")
        steps.append((op.at, op.kind, op.stream, (op.via, op.group)))
    for action in schedule.actions:
        if isinstance(action, PartitionWindow):
            side_a = nodes_of(action, action.side_a)
            side_b = nodes_of(action, action.side_b)
            if side_a & side_b:
                refuse(action, f"{sorted(side_a & side_b)} on both sides")
            cut = {node: action.side_b for node in side_a}
            cut.update({node: action.side_a for node in side_b})
            name = f"{','.join(sorted(side_a))} | {','.join(sorted(side_b))}"
            for at, blocked in ((action.start, True), (action.end, False)):
                steps.append((at, "partition", name, (cut, blocked)))
        elif not isinstance(action, _POINT_ACTIONS):
            refuse(action, "a message-level fault needs the simulated network")
        elif action.target not in hosts:
            refuse(action, "a kill -9, a restart or a clock is a whole "
                           "node's: name a node")
        elif isinstance(action, ClockStep):
            steps.append((action.at, "skew", action.target, (action.delta,)))
        elif not crash:
            refuse(action, "no supervisor kills and restarts its nodes")
        else:
            op = "kill9" if isinstance(action, CrashAt) else "restart"
            steps.append((action.at, op, action.target, ()))
    return sorted(steps, key=lambda step: step[0])


# RandomChaos's draw: crash/recover pairs and partition windows per
# schedule, the fault-free start, and the range of one outage's length.
_N_CRASHES = 2
_N_PARTITIONS = 2
_WARMUP = 0.1
_MIN_OUTAGE = 0.1
_MAX_OUTAGE = 0.5


class RandomChaos:
    """Seeded generator of adversarial schedules for a given topology.

    Draws crash/recover pairs over ``crash_targets``, partition windows
    over ``partition_cuts`` (candidate host-set pairs), and one loss,
    delay, duplication and reordering window each over the whole
    network.  All faults land inside ``[_WARMUP, horizon * (1 -
    quiet_tail)]`` so the run ends with a quiet period in which
    recovery machinery converges.

    The draw order is fixed, so one seed always produces one schedule.
    """

    def __init__(
        self,
        seed: int,
        horizon: float,
        crash_targets: tuple[str, ...] = (),
        partition_cuts: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (),
        quiet_tail: float = 0.35,
    ):
        if horizon <= _WARMUP:
            raise ValueError("horizon must exceed the warmup period")
        self.seed = seed
        self.horizon = horizon
        self.crash_targets = tuple(crash_targets)
        self.partition_cuts = tuple(partition_cuts)
        self.quiet_tail = quiet_tail

    def generate(self) -> Schedule:
        # Derive the stream the way RngRegistry does: stable across
        # processes (tuple/str hashes are per-process randomised).
        rng = random.Random(
            zlib.crc32(b"chaos") ^ (self.seed * 2654435761 % 2**32)
        )
        active_end = self.horizon * (1.0 - self.quiet_tail)
        actions: list[FaultAction] = []

        # Crash/recover pairs: per-target windows never overlap (a host
        # cannot crash while already down), tracked with a time cursor.
        cursors = {target: _WARMUP for target in self.crash_targets}
        for _ in range(_N_CRASHES if self.crash_targets else 0):
            target = rng.choice(self.crash_targets)
            earliest = cursors[target]
            latest = active_end - _MIN_OUTAGE
            if earliest >= latest:
                continue   # this target has no room left before the tail
            at = rng.uniform(earliest, latest)
            outage = rng.uniform(_MIN_OUTAGE, _MAX_OUTAGE)
            back = min(at + outage, active_end)
            actions.append(CrashAt(at=at, target=target))
            actions.append(RecoverAt(at=back, target=target))
            cursors[target] = back + 0.05

        for _ in range(_N_PARTITIONS if self.partition_cuts else 0):
            side_a, side_b = rng.choice(self.partition_cuts)
            start = rng.uniform(_WARMUP, active_end - _MIN_OUTAGE)
            length = rng.uniform(_MIN_OUTAGE, _MAX_OUTAGE)
            actions.append(
                PartitionWindow(
                    start=start,
                    end=min(start + length, active_end),
                    side_a=tuple(side_a),
                    side_b=tuple(side_b),
                )
            )

        def window() -> tuple[float, float]:
            start = rng.uniform(_WARMUP, active_end - _MIN_OUTAGE)
            length = rng.uniform(_MIN_OUTAGE, _MAX_OUTAGE)
            return start, min(start + length, active_end)

        start, end = window()
        actions.append(
            LossWindow(start=start, end=end, loss=rng.uniform(0.05, 0.25))
        )
        start, end = window()
        actions.append(
            DelaySpike(
                start=start, end=end, extra_latency=rng.uniform(0.002, 0.02),
            )
        )
        start, end = window()
        actions.append(
            DuplicateWindow(
                start=start, end=end,
                probability=rng.uniform(0.1, 0.5),
                spread=rng.uniform(0.001, 0.01),
            )
        )
        start, end = window()
        actions.append(
            ReorderWindow(
                start=start, end=end,
                probability=rng.uniform(0.1, 0.4),
                spread=rng.uniform(0.001, 0.01),
            )
        )

        actions.sort(
            key=lambda a: a.at if isinstance(a, _POINT_ACTIONS) else a.start
        )
        return Schedule(name=f"chaos-{self.seed}", actions=tuple(actions))
