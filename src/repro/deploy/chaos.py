"""The deploy drills: five named schedules the run driver plays live.

A drill is one row: a name, a description, a topology shape
(:func:`~repro.deploy.topology.build_topology` arguments that override
the command line's) and a builder ``(TopologySpec) -> (Schedule,
control ops)``, the two fields a simulated ``ScenarioSpec`` has, with
times in seconds into the workload.  ``repro deploy`` plays a drill
through :meth:`repro.runtime.driver.RunDriver.play` with the deploy
supervisor as its ``crash``; ``repro live`` plays ``baseline`` in one
process.  docs/DEPLOY.md §3 tables the drills and the live mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..faults.schedule import (
    ClockStep,
    ControlOp,
    CrashAt,
    PartitionWindow,
    RecoverAt,
    Schedule,
)
from .topology import TopologySpec, build_topology

__all__ = ["SCENARIOS", "Drill"]

Plan = tuple[Schedule, tuple[ControlOp, ...]]


@dataclass(frozen=True)
class Drill:
    """One named drill: its topology shape and what to play on it."""

    name: str
    description: str
    build: Callable[[TopologySpec], Plan]
    shape: dict[str, Any] = field(default_factory=dict)

    def topology(self, **kwargs: Any) -> TopologySpec:
        return build_topology(**{**kwargs, **self.shape})


def _victim(spec: TopologySpec) -> str:
    """A node of replicas alone: no acceptor state dies with it."""
    for node in reversed(spec.nodes):
        if node.replicas and not node.streams and not node.client:
            return node.name
    raise ValueError("the drill needs a replica-only node (--nodes 3)")


def _subscribes(spec: TopologySpec, at: Optional[float] = None
                ) -> tuple[ControlOp, ...]:
    """Subscribe each group, one by one, to every stream it did not
    start with, ``at`` (by default ``subscribe_after``) of the way into
    the workload."""
    at = spec.workload.subscribe_after if at is None else at
    return tuple(
        ControlOp(at * spec.workload.duration, "subscribe", group, stream,
                  via=initial[0])
        for group, initial in spec.groups.items()
        for stream in spec.streams if stream not in initial
    )


def _baseline(spec: TopologySpec) -> Plan:
    return Schedule("baseline"), _subscribes(spec)


def _kill9(spec: TopologySpec) -> Plan:
    workload, victim = spec.workload, _victim(spec)
    at = (workload.subscribe_after + 0.1) * workload.duration
    return Schedule("kill9", (
        CrashAt(at, victim),
        RecoverAt(at + 1.0, victim),    # traffic continues over the corpse
    )), _subscribes(spec)


def _partition(spec: TopologySpec) -> Plan:
    duration, victim = spec.workload.duration, _victim(spec)
    rest = tuple(host for node in spec.nodes if node.name != victim
                 for host in spec.hosts_of(node.name))
    # Subscribe only after the heal: the isolated replica first repairs
    # its gap, then rides through the merge point like everyone else.
    return Schedule("partition", (
        PartitionWindow(0.2 * duration, 0.5 * duration,
                        spec.hosts_of(victim), rest),
    )), _subscribes(spec, 0.6)


def _clock_skew(spec: TopologySpec) -> Plan:
    # A live step on top of the shape's static offsets.
    workload = spec.workload
    at = (workload.subscribe_after + 0.1) * workload.duration
    return Schedule("clock-skew", (
        ClockStep(at, spec.nodes[-1].name, 0.4),
    )), _subscribes(spec)


def _rolling_replace(spec: TopologySpec) -> Plan:
    """Acceptor replacement: move the workload to a new stream, retire the
    old one via the new, then power-cycle the old one's node."""
    at = spec.workload.subscribe_after * spec.workload.duration
    (group, initial), = spec.groups.items()
    old, new = initial[0], spec.streams[1]
    node = spec.owner_of(old)
    return Schedule("rolling-replace", (
        CrashAt(at, node), RecoverAt(at + 0.5, node),
    )), (
        ControlOp(at, "subscribe", group, new, via=old),
        ControlOp(at, "unsubscribe", group, old, via=new),
    )


SCENARIOS: dict[str, Drill] = {
    drill.name: drill
    for drill in (
        Drill("baseline", "workload + runtime subscribe, no faults",
              _baseline),
        Drill("kill9", "SIGKILL a replica-only worker mid-traffic, restart "
                       "it, require full re-convergence", _kill9),
        Drill("partition", "isolate a replica-only node at the socket "
                           "level, heal, require gap repair to re-converge",
              _partition),
        Drill("clock-skew", "per-node kernel clock offsets plus a mid-run "
                            "skew step; trace merge must re-align the "
                            "domains", _clock_skew,
              shape={"clock_skew": 0.25}),
        Drill("rolling-replace", "move traffic to a new stream, retire the "
                                 "old one, power-cycle its node under live "
                                 "load", _rolling_replace,
              shape={"streams": 2, "dedicate_stream_nodes": True}),
    )
}
