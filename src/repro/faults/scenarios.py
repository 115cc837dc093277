"""Named, reproducible fault scenarios.

Each :class:`ScenarioSpec` pins a cluster topology (streams, groups,
replicas), a paced workload, a script of dynamic-subscription control
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

__all__ = ["SCENARIOS", "ScenarioSpec", "get_scenario"]


_REPLICAS_PER_GROUP = 2


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one fault-injection run."""

    name: str
    description: str
    streams: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]       # group -> initial subscriptions
    duration: float
    schedule: Callable[[int], Schedule]      # seed -> fault plan
    control: tuple[ControlOp, ...] = ()
    lam: int = 500
    delta_t: float = 0.05
    link_latency: float = 0.001
    load_rate: float = 120.0                 # messages/second per stream
    load_until: Optional[float] = None       # defaults to 65% of duration
    # Optional per-stream load multiplier ``(stream, now) -> factor``:
    # skewed-traffic scenarios (hot-shard) scale each stream's paced
    # rate over time.  None keeps the legacy fixed-interval load loop
    # byte-for-byte identical (the golden digests depend on it).
    load_share: Optional[Callable[[str, float], float]] = None
    failover: tuple[str, ...] = ()           # streams deployed with a standby

    def replica_names(self) -> dict[str, list[str]]:
        """Replica host names per group (``<group>/r<i>``)."""
        return {
            group: [
                f"{group}/r{i + 1}" for i in range(_REPLICAS_PER_GROUP)
            ]
            for group in sorted(self.groups)
        }

    def all_replicas(self) -> list[str]:
        return [name for names in self.replica_names().values() for name in names]

    def acceptors_of(self, stream: str, n: int = 3) -> tuple[str, ...]:
        return tuple(f"{stream}/a{i + 1}" for i in range(n))


def _fixed(schedule: Schedule) -> Callable[[int], Schedule]:
    """A schedule builder that ignores the seed (named schedules)."""
    return lambda _seed: schedule


# -- named scenarios ----------------------------------------------------

def _subscribe_mid_partition() -> ScenarioSpec:
    """G1 subscribes to S2 while cut off from S2's acceptors: the scan
    of the new stream stalls, then completes after the heal (§II: safety
    always, liveness after GST)."""
    replicas = ("G1/r1", "G1/r2")
    acceptors = ("S2/a1", "S2/a2", "S2/a3")
    schedule = Schedule(
        name="subscribe-mid-partition",
        actions=(
            PartitionWindow(start=0.3, end=1.3, side_a=replicas, side_b=acceptors),
        ),
    )
    return ScenarioSpec(
        name="subscribe-mid-partition",
        description="subscription issued while the group is partitioned "
                    "from the new stream's acceptors",
        streams=("S1", "S2"),
        groups={"G1": ("S1",), "G2": ("S2",)},
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
    schedule = Schedule(
        name="coordinator-crash-at-merge",
        actions=(CrashAt(at=0.53, target="S2/coordinator"),),
    )
    return ScenarioSpec(
        name="coordinator-crash-at-merge",
        description="coordinator of the new stream crashes at the merge "
                    "point; failover promotes the standby",
        streams=("S1", "S2"),
        groups={"G1": ("S1",), "G2": ("S2",)},
        duration=5.0,
        schedule=_fixed(schedule),
        control=(
            ControlOp(at=0.5, kind="subscribe", group="G1", stream="S2", via="S1"),
        ),
        failover=("S1", "S2"),
    )


def _learner_crash_during_prepare() -> ScenarioSpec:
    """A replica crashes while the prepare_msg hint (§V-C) has it
    recovering the new stream in the background; after recovery from
    its checkpoint it replays the hint and the later subscription
    commits identically on both replicas."""
    schedule = Schedule(
        name="learner-crash-during-prepare",
        actions=(
            CrashAt(at=0.45, target="G1/r1"),
            RecoverAt(at=0.85, target="G1/r1"),
        ),
    )
    return ScenarioSpec(
        name="learner-crash-during-prepare",
        description="replica crash during prepare_msg background recovery",
        streams=("S1", "S2"),
        groups={"G1": ("S1",), "G2": ("S2",)},
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
        streams=("S1", "S2"),
        groups={"G1": ("S1",), "G2": ("S1", "S2")},
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
        streams=("S1", "S2"),
        groups={"G1": ("S1",), "G2": ("S1", "S2")},
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

    schedule = Schedule(
        name="hot-shard",
        actions=(
            DelaySpike(
                start=1.4, end=2.6, extra_latency=0.004,
                dst=("S1/a1", "S1/a2", "S1/a3"),
            ),
        ),
    )
    return ScenarioSpec(
        name="hot-shard",
        description="Zipfian skew burst overloads S1 under a delay "
                    "spike; a relief stream is subscribed mid-storm",
        streams=("S1", "S2", "S3"),
        groups={"G1": ("S1", "S2")},
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
    streams = ("S1", "S2", "S3")
    groups = {"G1": ("S1", "S2"), "G2": ("S2", "S3")}
    spec = ScenarioSpec(
        name="chaos",
        description="seeded random crashes/partitions/loss/dup/reorder "
                    "over 2 groups x 3 streams with subscription churn",
        streams=streams,
        groups=groups,
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
    replicas = spec.all_replicas()
    cuts = []
    for stream in spec.streams:
        acceptors = spec.acceptors_of(stream)
        for replica in replicas:
            cuts.append(((replica,), acceptors))
        cuts.append(((f"{stream}/coordinator",), acceptors))
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
