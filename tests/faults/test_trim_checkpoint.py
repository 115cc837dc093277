"""A trim never passes a checkpoint.

The chaos runner checkpoints every replica four times a second and
recovers a crashed one from its latest checkpoint, re-fetching each
stream from that checkpoint's replay point.  Here the values are large
(64 KiB, 300 a second a stream), so the cluster's trimmer fires several
times a second.  While a replica is down the others read on, far past
its checkpoint, and the trims run up to that checkpoint's replay point
-- never past it: trimmed on the merge cursors alone, the recovered
replica finds its first instances gone and its deliveries diverge from
its group's.  A subscription mid-run lets the crash fall before, during
or after a merge.  The seed count is ``REPRO_TRIM_SEEDS`` (default 10;
the nightly CI sweep runs 200).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import ScenarioSpec, sim_topology
from repro.faults.schedule import ControlOp, CrashAt, RecoverAt, Schedule
from repro.multicast.trim import TRIM_EVERY_BYTES

SEEDS = int(os.environ.get("REPRO_TRIM_SEEDS", "10"))
VALUE = TRIM_EVERY_BYTES // 16

TOPOLOGY = sim_topology(("S1", "S2"), {"G1": ("S1",), "G2": ("S2",)})


def _crash(seed: int) -> Schedule:
    """One replica down for 0.3-0.9 s, from 50-200 ms after one of its
    checkpoints at 0.5-1.25 s: it read past that checkpoint by then."""
    rng = random.Random(seed)
    victim = rng.choice(TOPOLOGY.replicas_of("G1") + TOPOLOGY.replicas_of("G2"))
    at = rng.choice((0.5, 0.75, 1.0, 1.25)) + rng.uniform(0.05, 0.2)
    return Schedule(name="crash-under-trim", actions=(
        CrashAt(at=at, target=victim),
        RecoverAt(at=at + rng.uniform(0.3, 0.9), target=victim),
    ))


SPEC = ScenarioSpec(
    name="crash-under-trim",
    description="a replica crashes and recovers from its checkpoint while "
                "64 KiB values keep the trimmer busy",
    topology=TOPOLOGY,
    duration=4.0,
    schedule=_crash,
    load_rate=300.0,
    control=(ControlOp(at=1.0, kind="subscribe", group="G1", stream="S2",
                       via="S1"),),
)


class LargeValues(ScenarioRunner):
    """The chaos runner, its paced load multicasting 64 KiB values."""

    def _load(self, stream: str, until: float, index: int = 0) -> None:
        env = self.cluster.env
        if env.now >= until:
            return
        self.cluster.client.multicast(stream, (stream, index), VALUE)
        env.call_later(1.0 / self.spec.load_rate, self._load, stream, until,
                       index + 1)


def _trimmed(runner: ScenarioRunner) -> dict[str, int]:
    """The highest trim horizon of each stream's acceptors."""
    return {
        name: max(a.core.log.trimmed_below for a in deployment.acceptors)
        for name, deployment in runner.cluster.directory.items()
    }


def _cursor_horizon(runner: ScenarioRunner, stream: str) -> int:
    """Where the merge cursors alone would let ``stream`` be trimmed:
    the lowest replay point over the replicas reading it."""
    return min(
        log.replay_point(replica.merger.positions().get(stream, log.base))[0]
        for replica in runner.cluster.replicas.values()
        if (log := replica.logs.get(stream)) is not None
    )


@pytest.mark.parametrize("seed", range(1, SEEDS + 1))
def test_no_trim_passes_the_checkpoint_a_crashed_replica_recovers_from(seed):
    runner = LargeValues(SPEC, seed)
    crash, recover = runner.schedule.actions
    victim = crash.target
    trimmer = runner.cluster.trimmer
    asked: list[tuple[float, str]] = []
    horizon = trimmer.horizon

    def asking(stream):
        asked.append((runner.cluster.env.now, stream))
        return horizon(stream)

    trimmer.horizon = asking
    seen: dict[str, dict] = {}
    hook = runner.orchestrator.recover_hooks[victim]

    def recovering() -> None:
        # What the victim's recovery re-fetches from, what the acceptors
        # still hold and what the merge cursors alone would let go, at
        # the instant it recovers.
        checkpoint = runner.checkpoints[victim].latest().state["merger"]
        seen["replay"] = {s: at for s, (at, _base) in checkpoint.replay_points}
        seen["trimmed"] = _trimmed(runner)
        seen["cursors"] = {s: _cursor_horizon(runner, s) for s in seen["replay"]}
        hook()

    runner.orchestrator.recover_hooks[victim] = recovering
    result = runner.run()          # raises on any invariant violation
    assert min(result.delivered.values()) > 0

    replay, trimmed = seen["replay"], seen["trimmed"]
    # The trimmer ran on the victim's streams while it was down, and the
    # others read so far past its checkpoint that the merge cursors
    # alone would have trimmed past it...
    assert any(crash.at < at < recover.at and stream in replay
               for at, stream in asked), seen
    assert any(seen["cursors"][s] > replay[s] for s in replay), seen
    # ... but the trims stopped at its checkpoint's replay point.
    for stream, instance in replay.items():
        assert trimmed[stream] <= instance, (stream, seen)
    # Once it recovered, they went on past it.
    final = _trimmed(runner)
    assert any(final[s] > replay[s] for s in replay), (final, seen)
