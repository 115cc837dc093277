"""Scenario-driven acceptance harness for the elasticity controller.

Each :class:`ElasticityScenario` describes a workload shape (a traffic
ramp, a Zipfian hot-key storm, a slow-acceptor injection via the fault
DSL), a policy, and what the controller is expected to do about it.
:class:`ElasticityRunner` is a :class:`~repro.faults.runner.CheckedRun`:
cluster, invariant suite, fault orchestrator, check timer and flight
recorder are the fault runner's.  It adds sharded traffic routed through
the :class:`~repro.elasticity.router.StreamRouter`, signals sampled by a
:class:`~repro.elasticity.signals.SimSignalSource` from a windowed
metrics registry, and the controller, and runs the loop to completion.

The run is an *acceptance test* of the whole feedback path:

* safety invariants are checked on a timer throughout (and the groups
  must converge at the end);
* delivery must stay disruption-free: the maximum inter-delivery gap
  observed at the reference replica during the loaded window is bounded
  -- a reconfiguration that stalled the merge would blow it;
* the decision timeline is part of the result, so "same seed, same
  decisions" is directly assertable;
* every decision rides the trace (``elastic.decision`` ->
  ``control.subscribe`` -> ``merge.subscribe.commit`` share a
  ``request_id``), so ``repro validate-trace`` can check causality;
* a violation dumps the flight recorder to ``$REPRO_FLIGHT_DIR``.

Determinism: all inputs are virtual-time driven (paced traffic with a
seeded rng, a fixed controller interval, fault windows at fixed virtual
times), so one ``(scenario, seed)`` pair yields a bit-identical
delivery digest *and* decision timeline.  With the controller disabled
or in dry-run mode the run never reconfigures, so those two digests
must match each other exactly -- the "dry-run never acts" guarantee,
checked end to end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..deploy.topology import TopologySpec
from ..faults.runner import CheckedRun
from ..faults.scenarios import sim_topology
from ..faults.schedule import DelaySpike, Schedule
from ..obs.metrics import MetricsRegistry
from ..workload.generators import zipf_shares
from .actions import SimExecutor
from .controller import ElasticityController
from .policy import (
    DecideRateCeiling,
    DecisionRecord,
    PolicyEngine,
    SlowStreamSlo,
    StreamSkew,
)
from .router import StreamRouter
from .signals import SimSignalSource

__all__ = [
    "SCENARIOS",
    "ElasticityResult",
    "ElasticityRunner",
    "ElasticityScenario",
    "get_scenario",
    "run_scenario",
]

_N_SHARDS = 8             # workload shards the router maps onto streams
_LOAD_UNTIL_FRAC = 0.8    # traffic stops at this fraction of the run
_METRICS_WINDOW = 1.0     # retention window of the signal registry (s)
_RAMP = (0.5, 2.5)        # the traffic ramp's window [start, end] (s)
_ZIPF_S = 1.8             # the hot-key storm's Zipf exponent
_WARMUP = 0.5             # the gap measurement starts here (s)


@dataclass(frozen=True)
class ElasticityScenario:
    """One closed-loop acceptance scenario: a one-group topology, and a
    workload, a policy and an oracle."""

    name: str
    description: str
    duration: float
    topology: TopologySpec
    # -- workload shape -------------------------------------------------
    base_rate: float = 60.0            # submitted messages/s at t=0
    peak_rate: Optional[float] = None  # ramp target (None: flat)
    skew_window: Optional[tuple[float, float]] = None  # hot-key storm
    # -- faults ---------------------------------------------------------
    schedule: Optional[Callable[["ElasticityScenario", int], Schedule]] = None
    # -- policy ---------------------------------------------------------
    rules: Callable[[], tuple] = field(default=tuple)
    cooldown: float = 1.5
    max_streams: int = 4
    # -- acceptance oracle ---------------------------------------------
    expected_kinds: tuple[str, ...] = ("subscribe",)
    gap_bound: float = 0.5             # max inter-delivery gap allowed

    # -- workload sampling ---------------------------------------------

    def rate_at(self, now: float) -> float:
        """Submitted messages/s at virtual time ``now``."""
        if self.peak_rate is None:
            return self.base_rate
        start, end = _RAMP
        if now <= start:
            return self.base_rate
        if now >= end:
            return self.peak_rate
        frac = (now - start) / (end - start)
        return self.base_rate + frac * (self.peak_rate - self.base_rate)

    def skewed(self, now: float) -> bool:
        """True while the hot-key storm is blowing."""
        if self.skew_window is None:
            return False
        start, end = self.skew_window
        return start <= now < end

    def load_until(self) -> float:
        return self.duration * _LOAD_UNTIL_FRAC


@dataclass
class ElasticityResult:
    """Outcome of one closed-loop run (invariants all held -- a
    violation raises out of :meth:`ElasticityRunner.run` instead)."""

    scenario: str
    seed: int
    dry_run: bool
    controller_enabled: bool
    duration: float
    timeline: list[DecisionRecord]
    executed: list[tuple[float, str, str, int]]  # (at, kind, stream, req id)
    retired: list[str]
    final_streams: tuple[str, ...]
    delivered: dict[str, int]
    checks_run: int
    digest: str
    max_gap: float
    gap_bound: float
    expected_kinds: tuple[str, ...]
    report_text: str = ""

    @property
    def executed_kinds(self) -> tuple[str, ...]:
        return tuple(kind for _at, kind, _stream, _rid in self.executed)

    @property
    def ok(self) -> bool:
        """Did the run meet its acceptance oracle?

        Safety held and the groups converged (or we would not have a
        result), delivery stayed gap-free, and -- when the loop was
        closed -- every expected reconfiguration kind actually ran.
        """
        if self.max_gap > self.gap_bound:
            return False
        if self.dry_run or not self.controller_enabled:
            return not self.executed
        return all(
            kind in self.executed_kinds for kind in self.expected_kinds
        )

    def report(self) -> str:
        return self.report_text


def _ramp_rules() -> tuple:
    return (DecideRateCeiling(ceiling=200.0),)


def _hot_shard_rules() -> tuple:
    return (StreamSkew(max_share=0.65, min_total_rate=40.0),)


def _slow_acceptor_rules() -> tuple:
    return (SlowStreamSlo(stall_ms=60.0, healthy_ms=30.0),)


def _slow_acceptor_schedule(
    spec: ElasticityScenario, seed: int
) -> Schedule:
    """One acceptor ring (S1's) turns slow for the rest of the run."""
    slow = spec.topology.acceptors("S1")
    return Schedule(
        name="slow-ring",
        actions=(
            DelaySpike(
                start=1.0, end=spec.duration, extra_latency=0.040, dst=slow
            ),
        ),
    )


SCENARIOS: dict[str, ElasticityScenario] = {
    spec.name: spec
    for spec in (
        ElasticityScenario(
            name="ramp",
            description=(
                "linear traffic ramp past the decide-rate ceiling; the "
                "controller must subscribe a new stream autonomously"
            ),
            duration=6.0,
            topology=sim_topology(("S1",), {"G1": ("S1",)}),
            base_rate=60.0,
            peak_rate=360.0,
            rules=_ramp_rules,
            max_streams=3,
            expected_kinds=("subscribe",),
        ),
        ElasticityScenario(
            name="hot-shard",
            description=(
                "Zipfian hot-key storm concentrates load on one stream; "
                "the controller must split the hot shard's key range"
            ),
            duration=6.0,
            topology=sim_topology(("S1", "S2"), {"G1": ("S1", "S2")}),
            base_rate=150.0,
            skew_window=(1.0, 4.0),
            rules=_hot_shard_rules,
            max_streams=3,
            expected_kinds=("split",),
        ),
        ElasticityScenario(
            name="slow-acceptor",
            description=(
                "one acceptor ring develops 40ms of extra latency; the "
                "controller must retire it for a fresh stream"
            ),
            duration=7.0,
            topology=sim_topology(("S1", "S2"), {"G1": ("S1", "S2")}),
            base_rate=120.0,
            schedule=_slow_acceptor_schedule,
            rules=_slow_acceptor_rules,
            cooldown=2.0,
            expected_kinds=("replace",),
            gap_bound=1.0,
        ),
    )
}


def get_scenario(name: str) -> ElasticityScenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown elasticity scenario {name!r} (known: {known})"
        ) from None


class ElasticityRunner(CheckedRun):
    """Builds, runs and judges one closed-loop elasticity scenario."""

    def __init__(
        self,
        spec: ElasticityScenario,
        seed: int = 1,
        dry_run: bool = False,
        controller_enabled: bool = True,
    ):
        self.dry_run = dry_run
        self.controller_enabled = controller_enabled
        self.registry = MetricsRegistry(window=_METRICS_WINDOW)
        super().__init__(
            spec,
            seed,
            spec.schedule(spec, seed) if spec.schedule is not None
            else Schedule(name="none"),
            metrics=self.registry,
        )
        self.router = StreamRouter(range(_N_SHARDS), spec.topology.streams)
        # The controller, the engine and the executor keep their default
        # interval, sustain and retirement delay; the controller grows
        # the topology's one group.
        (group,) = spec.topology.groups
        self.executor = SimExecutor(self.cluster, group, self.router)
        self.engine = PolicyEngine(
            spec.rules(),
            cooldown=spec.cooldown,
            dry_run=dry_run,
            max_streams=spec.max_streams,
        )
        self.source = SimSignalSource(
            self.cluster.env,
            self.registry,
            self.cluster.replicas,
            self.cluster.directory,
        )
        self.controller = ElasticityController(
            self.source,
            self.engine,
            self.executor,
            env=self.cluster.env,
            router=self.router,
        )
        # Delivery gap accounting at the reference replica.
        self._reference = spec.topology.all_replicas()[0]
        self.delivery_times: list[float] = []
        self.cluster.replicas[self._reference].add_delivery_observer(
            self._observe_delivery
        )
        # Zipf CDF over the shards, hottest first (shard 0 is rank 0).
        cumulative, cdf = 0.0, []
        for share in zipf_shares(_N_SHARDS, _ZIPF_S):
            cumulative += share
            cdf.append(cumulative)
        self._zipf_cdf = cdf

    @property
    def label(self) -> str:
        return f"elasticity/{self.spec.name}"

    # -- observation ----------------------------------------------------

    def _observe_delivery(self, value, stream, position) -> None:
        self.delivery_times.append(self.cluster.env.now)

    # -- load -----------------------------------------------------------

    def _draw_shard(self, rng) -> int:
        if self.spec.skewed(self.cluster.env.now):
            return bisect.bisect_left(self._zipf_cdf, rng.random())
        return rng.randrange(_N_SHARDS)

    def _traffic(self, until: float, index: int = 0) -> None:
        """One value of the load loop, then re-arm it, until ``until``."""
        env = self.cluster.env
        if env.now >= until:
            return
        rng = self.cluster.rng.stream("elastic-load")
        shard = self._draw_shard(rng)
        subkey = rng.random()
        stream = self.router.stream_for(shard, subkey)
        self.cluster.client.multicast(
            stream, payload=("m", index, shard), size=64
        )
        self.registry.counter(f"shard/{shard}", "ops").record()
        env.call_later(
            1.0 / self.spec.rate_at(env.now), self._traffic, until, index + 1
        )

    # -- running --------------------------------------------------------

    def _max_gap(self, load_until: float) -> float:
        """Largest inter-delivery gap in the loaded, post-warmup window."""
        lo, hi = _WARMUP, load_until
        times = [t for t in self.delivery_times if lo <= t <= hi]
        if not times:
            return hi - lo
        gaps = [b - a for a, b in zip(times, times[1:])]
        gaps.append(times[0] - lo)
        gaps.append(hi - times[-1])
        return max(gaps)

    def run(self) -> ElasticityResult:
        spec = self.spec
        load_until = spec.load_until()
        self.cluster.env.call_later(0.0, self._traffic, load_until)
        self._run_checked(
            spec.duration,
            self.controller.start if self.controller_enabled else None,
        )
        result = ElasticityResult(
            scenario=spec.name,
            seed=self.seed,
            dry_run=self.dry_run,
            controller_enabled=self.controller_enabled,
            duration=spec.duration,
            timeline=list(self.engine.timeline),
            executed=[
                (at, action.kind, action.stream, request_id)
                for at, action, request_id in self.controller.executed
            ],
            retired=list(self.executor.retired),
            final_streams=self.source._committed_streams(),
            delivered=self.delivered(),
            checks_run=self.suite.checks_run,
            digest=self.digest(),
            max_gap=self._max_gap(load_until),
            gap_bound=spec.gap_bound,
            expected_kinds=spec.expected_kinds,
        )
        result.report_text = self._render_report(result)
        return result

    def _render_report(self, result: ElasticityResult) -> str:
        mode = (
            "dry-run" if result.dry_run
            else ("closed-loop" if result.controller_enabled else "disabled")
        )
        lines = [
            f"scenario             : elasticity/{result.scenario} "
            f"(seed {result.seed}, {mode})",
            f"description          : {self.spec.description}",
            f"policy               : "
            f"{', '.join(r.name for r in self.engine.rules)} "
            f"(sustain {self.engine.sustain}, cooldown "
            f"{self.engine.cooldown:g}s)",
        ]
        fired = self.engine.fired()
        if fired:
            lines.append("decision timeline    :")
            for record in fired:
                lines.append(
                    f"  t={record.at:6.2f}s  {record.status:<8} "
                    f"{record.proposal.kind:<9} [{record.proposal.rule}] "
                    f"{record.proposal.reason}"
                )
        else:
            lines.append("decision timeline    : (no decisions fired)")
        if result.executed:
            lines.append("actions executed     :")
            for at, kind, stream, request_id in result.executed:
                lines.append(
                    f"  t={at:6.2f}s  {kind:<9} -> {stream} "
                    f"(request {request_id})"
                )
        if result.retired:
            lines.append(
                f"streams retired      : {', '.join(result.retired)}"
            )
        sigma = "{" + ", ".join(result.final_streams) + "}"
        lines.append(f"final Σ              : {sigma}")
        counts = ", ".join(
            f"{name}={count}" for name, count in result.delivered.items()
        )
        lines.append(f"delivered            : {counts}")
        lines.append(
            f"invariant checks run : {result.checks_run} -- all OK, "
            f"groups converged"
        )
        lines.append(
            f"max delivery gap     : {result.max_gap * 1000:.0f} ms "
            f"(bound {result.gap_bound * 1000:.0f} ms)"
        )
        lines.append(f"delivery digest      : {result.digest[:16]}")
        lines.append(
            f"acceptance           : {'OK' if result.ok else 'FAILED'}"
        )
        return "\n".join(lines)


def run_scenario(
    name: str,
    seed: int = 1,
    dry_run: bool = False,
    controller_enabled: bool = True,
) -> ElasticityResult:
    """Run one named scenario end to end; returns its result."""
    return ElasticityRunner(
        get_scenario(name),
        seed=seed,
        dry_run=dry_run,
        controller_enabled=controller_enabled,
    ).run()
