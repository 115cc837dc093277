"""Deterministic fault injection and always-on safety invariant checking.

Elastic Paxos claims that dynamic subscriptions, unsubscriptions and
acceptor reconfigurations preserve acyclic total order under a
crash-recovery model with message loss (§II of the paper).  This
package turns that claim into a continuously checked property:

* :mod:`repro.faults.schedule` -- a declarative DSL for fault plans
  (crashes, partitions, loss/delay/duplication/reordering windows) plus
  the seeded :class:`RandomChaos` generator;
* :mod:`repro.faults.orchestrator` -- executes a schedule against the
  simulated network and its hosts/actors in virtual time;
* :mod:`repro.faults.invariants` -- taps replica delivery logs and
  folds them into :mod:`repro.spec`, the one statement of the paper's
  safety properties, throughout a run;
* :mod:`repro.faults.scenarios` / :mod:`repro.faults.runner` -- named,
  reproducible scenarios wired into :mod:`repro.harness.cluster`, also
  reachable as ``python -m repro faults run <scenario>``.
"""

from .invariants import DeliveryRecord, InvariantSuite, InvariantViolation
from .orchestrator import FaultOrchestrator
from .runner import ScenarioResult, ScenarioRunner, run_scenario
from .scenarios import SCENARIOS, ControlOp, ScenarioSpec, get_scenario
from .schedule import (
    CrashAt,
    DelaySpike,
    DuplicateWindow,
    LossWindow,
    PartitionWindow,
    RandomChaos,
    RecoverAt,
    ReorderWindow,
    Schedule,
)

__all__ = [
    "ControlOp",
    "CrashAt",
    "DelaySpike",
    "DeliveryRecord",
    "DuplicateWindow",
    "FaultOrchestrator",
    "InvariantSuite",
    "InvariantViolation",
    "LossWindow",
    "PartitionWindow",
    "RandomChaos",
    "RecoverAt",
    "ReorderWindow",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "Schedule",
    "get_scenario",
    "run_scenario",
]
