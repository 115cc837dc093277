"""Executes a fault schedule against the simulated network.

:class:`FaultOrchestrator` compiles a :class:`repro.faults.schedule.Schedule`
onto the event calendar: window actions install/remove
:class:`repro.sim.network.FaultRule` overlays or partitions, point
actions crash and recover hosts.  Crash targets are resolved through
the host's actor back-reference when one exists (crashing the process,
which halts its receive loop and timers, not merely the box); recovery
honours an optional per-target hook so stateful targets -- multicast
replicas -- can be rebuilt from their latest checkpoint by the scenario
runner instead of coming back blank.

Every injected action is recorded in :attr:`events` with its virtual
time, so a run's fault timeline can be printed next to its invariant
report.
"""

from __future__ import annotations

from typing import Callable

from ..sim.core import Environment
from ..sim.network import FaultRule, Network
from .schedule import (
    ClockStep,
    CrashAt,
    DelaySpike,
    DuplicateWindow,
    LossWindow,
    PartitionWindow,
    RecoverAt,
    ReorderWindow,
    Schedule,
    UnsupportedAction,
)

__all__ = ["FaultOrchestrator"]


class FaultOrchestrator:
    """Injects the faults of a schedule at their virtual times."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        # Per-target recovery in place of a plain host restart; the
        # scenario runner fills it for the replicas it checkpoints.
        self.recover_hooks: dict[str, Callable[[], None]] = {}
        self.events: list[tuple[float, str]] = []

    # -- driving --------------------------------------------------------

    def execute(self, schedule: Schedule) -> None:
        """Arm every action of ``schedule`` on the event calendar; a
        clock step, which hosts sharing one clock cannot take, is
        refused before anything is armed."""
        for action in schedule.actions:
            if isinstance(action, ClockStep):
                raise UnsupportedAction(action, "simulator",
                                        "its hosts share one clock")
        for action in schedule.actions:
            if isinstance(action, CrashAt):
                self.env.call_at(action.at, self._crash, action)
            elif isinstance(action, RecoverAt):
                self.env.call_at(action.at, self._recover, action)
            elif isinstance(action, PartitionWindow):
                self.env.call_at(action.start, self._partition_start, action)
                self.env.call_at(action.end, self._partition_end, action)
            else:   # overlay windows: loss / delay / duplicate / reorder
                rule = self._rule_for(action)
                self.env.call_at(action.start, self._rule_start, action, rule)
                self.env.call_at(action.end, self._rule_end, action, rule)

    def _note(self, text: str) -> None:
        self.events.append((self.env.now, text))
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("fault.inject", self.env.now, action=text)

    # -- point actions --------------------------------------------------

    def _crash(self, action: CrashAt) -> None:
        host = self.network.host(action.target)
        if host.crashed:
            return
        target = host.actor if host.actor is not None else host
        target.crash()
        self._note(action.describe())

    def _recover(self, action: RecoverAt) -> None:
        hook = self.recover_hooks.get(action.target)
        if hook is not None:
            hook()
        else:
            host = self.network.host(action.target)
            if not host.crashed:
                return
            target = host.actor if host.actor is not None else host
            target.recover()
        self._note(action.describe())

    # -- windows --------------------------------------------------------

    def _partition_start(self, action: PartitionWindow) -> None:
        self.network.partition(set(action.side_a), set(action.side_b))
        self._note("begin " + action.describe())

    def _partition_end(self, action: PartitionWindow) -> None:
        self.network.unpartition(set(action.side_a), set(action.side_b))
        self._note("end " + action.describe())

    @staticmethod
    def _rule_for(action) -> FaultRule:
        if isinstance(action, LossWindow):
            return FaultRule(src=action.src, dst=action.dst, loss=action.loss)
        if isinstance(action, DelaySpike):
            return FaultRule(
                src=action.src, dst=action.dst,
                extra_latency=action.extra_latency,
            )
        if isinstance(action, DuplicateWindow):
            return FaultRule(
                src=action.src, dst=action.dst,
                duplicate=action.probability, reorder_spread=action.spread,
            )
        if isinstance(action, ReorderWindow):
            return FaultRule(
                src=action.src, dst=action.dst,
                reorder=action.probability, reorder_spread=action.spread,
            )
        raise TypeError(f"unknown fault action {action!r}")

    def _rule_start(self, action, rule: FaultRule) -> None:
        self.network.add_fault(rule)
        self._note("begin " + action.describe())

    def _rule_end(self, action, rule: FaultRule) -> None:
        self.network.remove_fault(rule)
        self._note("end " + action.describe())
