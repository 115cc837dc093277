"""Named, reproducible fault scenarios.

Each :class:`ScenarioSpec` is a topology (streams, groups, replicas)
plus a run: a paced workload, a script of dynamic-subscription control
operations, and a fault schedule -- either a hand-written, named
:class:`~repro.faults.schedule.Schedule` or a seeded
:class:`~repro.faults.schedule.RandomChaos` plan.  The
:class:`~repro.faults.runner.ScenarioRunner` executes a spec and checks
every safety invariant throughout.

Run them from the command line::

    python -m repro faults list
    python -m repro faults run chaos --seed 11
    python -m repro faults run coordinator-crash-at-merge
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..deploy.topology import TopologySpec
from ..paxos.config import coordinator_name
from ..workload.generators import zipf_shares
from .schedule import (
    ControlOp,
    CrashAt,
    DelaySpike,
    DuplicateWindow,
    PartitionWindow,
    RandomChaos,
    RecoverAt,
    ReorderWindow,
    Schedule,
)

__all__ = ["SCENARIOS", "ScenarioSpec", "get_scenario", "sim_topology"]


def sim_topology(streams: tuple[str, ...],
                 groups: dict[str, tuple[str, ...]],
                 **knobs) -> TopologySpec:
    """A simulated cluster at the checked runs' parameters: λ = 500,
    Δt = 50 ms, fixed-trigger batching, two replicas a group."""
    return TopologySpec(streams=streams, groups=groups, lam=500,
                        delta_t=0.05, adaptive_batching=False, **knobs)


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one fault-injection run: the
    cluster, and what is done to it."""

    name: str
    description: str
    topology: TopologySpec
    duration: float
    schedule: Callable[[int], Schedule]      # seed -> fault plan
    control: tuple[ControlOp, ...] = ()
    load_rate: float = 120.0                 # messages/second per stream
    # Optional per-stream load multiplier ``(stream, now) -> factor``:
    # skewed-traffic scenarios (hot-shard) scale each stream's paced
    # rate over time.  None keeps the legacy fixed-interval load loop
    # byte-for-byte identical (the golden digests depend on it).
    load_share: Optional[Callable[[str, float], float]] = None

    def load_until(self) -> float:
        """The load stops at 65% of the run: the rest drains."""
        return self.duration * 0.65


def _fixed(schedule: Schedule) -> Callable[[int], Schedule]:
    """A schedule builder that ignores the seed (named schedules)."""
    return lambda _seed: schedule


# -- named scenarios ----------------------------------------------------

def _subscribe_mid_partition() -> ScenarioSpec:
    """G1 subscribes to S2 while cut off from S2's acceptors: the scan
    of the new stream stalls, then completes after the heal (§II: safety
    always, liveness after GST)."""
    topology = sim_topology(("S1", "S2"), {"G1": ("S1",), "G2": ("S2",)})
    schedule = Schedule(
        name="subscribe-mid-partition",
        actions=(
            PartitionWindow(start=0.3, end=1.3,
                            side_a=topology.replicas_of("G1"),
                            side_b=topology.acceptors("S2")),
        ),
    )
    return ScenarioSpec(
        name="subscribe-mid-partition",
        description="subscription issued while the group is partitioned "
                    "from the new stream's acceptors",
        topology=topology,
        duration=4.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.5, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
    )


def _coordinator_crash_at_merge() -> ScenarioSpec:
    """S2's coordinator crashes right at the merge point of a
    subscription; the standby is promoted and the subscription still
    commits with a consistent merge point on every replica."""
    topology = sim_topology(("S1", "S2"), {"G1": ("S1",), "G2": ("S2",)},
                            failover=("S1", "S2"))
    schedule = Schedule(
        name="coordinator-crash-at-merge",
        actions=(CrashAt(at=0.53, target=coordinator_name("S2")),),
    )
    return ScenarioSpec(
        name="coordinator-crash-at-merge",
        description="coordinator of the new stream crashes at the merge "
                    "point; failover promotes the standby",
        topology=topology,
        duration=5.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.5, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
    )


def _learner_crash_during_prepare() -> ScenarioSpec:
    """A replica crashes while the prepare_msg hint (§V-C) has it
    recovering the new stream in the background; after recovery from
    its checkpoint it replays the hint and the later subscription
    commits identically on both replicas."""
    topology = sim_topology(("S1", "S2"), {"G1": ("S1",), "G2": ("S2",)})
    victim = topology.replicas_of("G1")[0]
    schedule = Schedule(
        name="learner-crash-during-prepare",
        actions=(
            CrashAt(at=0.45, target=victim),
            RecoverAt(at=0.85, target=victim),
        ),
    )
    return ScenarioSpec(
        name="learner-crash-during-prepare",
        description="replica crash during prepare_msg background recovery",
        topology=topology,
        duration=4.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.4, kind="prepare", group="G1", stream="S2", via="S1"),
            ControlOp(at=1.2, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
    )


def _duplicate_storm() -> ScenarioSpec:
    """Every message may be delivered twice while a subscription is in
    flight: instance numbers and request ids must deduplicate at every
    layer."""
    schedule = Schedule(
        name="duplicate-storm",
        actions=(
            DuplicateWindow(start=0.2, end=1.6, probability=0.4, spread=0.004),
        ),
    )
    return ScenarioSpec(
        name="duplicate-storm",
        description="40% message duplication across the whole network "
                    "through a dynamic subscription",
        topology=sim_topology(("S1", "S2"),
                              {"G1": ("S1",), "G2": ("S1", "S2")}),
        duration=4.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.7, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
    )


def _reorder_storm() -> ScenarioSpec:
    """Bounded reordering (messages escape the TCP FIFO by a few
    milliseconds) while a subscription is in flight: learners must
    re-sequence by instance number."""
    schedule = Schedule(
        name="reorder-storm",
        actions=(
            ReorderWindow(start=0.2, end=1.6, probability=0.3, spread=0.004),
        ),
    )
    return ScenarioSpec(
        name="reorder-storm",
        description="30% bounded message reordering across the whole "
                    "network through a dynamic subscription",
        topology=sim_topology(("S1", "S2"),
                              {"G1": ("S1",), "G2": ("S1", "S2")}),
        duration=4.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.7, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
    )


def _hot_shard() -> ScenarioSpec:
    """A Zipfian skew burst concentrates traffic on S1 (the hot shard's
    stream) while its acceptor links wobble; mid-storm the group
    subscribes a relief stream.  The scripted twin of the elasticity
    harness's hot-shard scenario (``repro elasticity``): here the
    reconfiguration is at a fixed time, there the closed loop decides
    it -- both must keep every invariant green."""
    shares = zipf_shares(2, 1.8)

    def load_share(stream: str, now: float) -> float:
        if not 1.0 <= now < 3.0:
            return 1.0
        if stream == "S1":
            return 2.0 * shares[0]       # ~1.55x: the hot stream
        if stream == "S2":
            return 2.0 * shares[1]       # ~0.45x: the cold one
        return 1.0

    topology = sim_topology(("S1", "S2", "S3"), {"G1": ("S1", "S2")})
    schedule = Schedule(
        name="hot-shard",
        actions=(
            DelaySpike(
                start=1.4, end=2.6, extra_latency=0.004,
                dst=topology.acceptors("S1"),
            ),
        ),
    )
    return ScenarioSpec(
        name="hot-shard",
        description="Zipfian skew burst overloads S1 under a delay "
                    "spike; a relief stream is subscribed mid-storm",
        topology=topology,
        duration=4.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=1.5, kind="subscribe", group="G1", stream="S3", via="S1"),
        ),
        load_share=load_share,
    )


def _chaos() -> ScenarioSpec:
    """Seeded everything-at-once adversary over a 2-group, 3-stream
    cluster: crashes with checkpoint recovery, partitions, loss, delay
    spikes, duplication and reordering, through a scripted subscribe,
    unsubscribe and a second subscribe."""
    spec = ScenarioSpec(
        name="chaos",
        description="seeded random crashes/partitions/loss/dup/reorder "
                    "over 2 groups x 3 streams with subscription churn",
        topology=sim_topology(("S1", "S2", "S3"),
                              {"G1": ("S1", "S2"), "G2": ("S2", "S3")}),
        duration=5.0,
        schedule=lambda seed: _chaos_schedule(spec, seed),
        control=(
            ControlOp(at=0.6, kind="subscribe", group="G1", stream="S3", via="S1"),
            ControlOp(at=1.6, kind="unsubscribe", group="G2", stream="S3"),
            ControlOp(at=2.2, kind="subscribe", group="G2", stream="S1", via="S2"),
        ),
        load_rate=80.0,
    )
    return spec


def _chaos_schedule(spec: ScenarioSpec, seed: int) -> Schedule:
    topology = spec.topology
    replicas = topology.all_replicas()
    cuts = []
    for stream in topology.streams:
        acceptors = topology.acceptors(stream)
        for replica in replicas:
            cuts.append(((replica,), acceptors))
        cuts.append(((coordinator_name(stream),), acceptors))
    return RandomChaos(
        seed=seed,
        horizon=spec.duration,
        crash_targets=tuple(replicas),
        partition_cuts=tuple(cuts),
        quiet_tail=0.4,
    ).generate()


SCENARIOS: dict[str, Callable[[], ScenarioSpec]] = {
    "subscribe-mid-partition": _subscribe_mid_partition,
    "coordinator-crash-at-merge": _coordinator_crash_at_merge,
    "learner-crash-during-prepare": _learner_crash_during_prepare,
    "duplicate-storm": _duplicate_storm,
    "reorder-storm": _reorder_storm,
    "hot-shard": _hot_shard,
    "chaos": _chaos,
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]()
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
