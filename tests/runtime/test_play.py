"""One schedule, both backends.

A plan is a :class:`~repro.faults.schedule.Schedule` plus its control
ops.  The builder below writes one over the names a topology has: cut
one replica off from a stream's hosts for a while, heal, then subscribe
the group to its second stream.  The simulator runs it through
:class:`~repro.faults.runner.ScenarioRunner` (every invariant checked
throughout); an in-process live cluster runs it through
:meth:`~repro.runtime.driver.RunDriver.play` (the run driver's
verdict).  Both must come out clean.
"""

from __future__ import annotations

import asyncio

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import ScenarioSpec
from repro.faults.schedule import ControlOp, PartitionWindow, Schedule
from repro.runtime.supervisor import LiveCluster, LiveConfig


def isolate_then_grow(group, streams, isolated, cut_from):
    return Schedule("isolate-then-grow", (
        PartitionWindow(start=0.3, end=0.6, side_a=isolated,
                        side_b=cut_from),
    )), (
        ControlOp(at=0.8, kind="subscribe", group=group, stream=streams[1],
                  via=streams[0]),
    )


def test_one_plan_runs_clean_on_the_simulator():
    schedule, control = isolate_then_grow(
        "G1", ("S1", "S2"), ("G1/r2",),
        ("S1/coordinator", "S1/a1", "S1/a2", "S1/a3"),
    )
    result = ScenarioRunner(ScenarioSpec(
        name="isolate-then-grow",
        description="one plan, both backends",
        streams=("S1", "S2"),
        groups={"G1": ("S1",)},
        duration=4.0,
        schedule=lambda _seed: schedule,
        control=control,
    )).run()
    assert [text for _at, text in result.timeline] == [
        "begin " + schedule.actions[0].describe(),
        "end " + schedule.actions[0].describe(),
    ]
    assert min(result.delivered.values()) > 0


def test_the_same_plan_runs_clean_on_a_live_cluster():
    async def main():
        cluster = LiveCluster(LiveConfig(
            nodes=3, streams=2, replicas=3, duration=1.5, rate=100.0,
            drain_timeout=20.0,
        ))
        try:
            await cluster.start()
            driver = cluster.driver
            hosts = {name: tuple(info["hosts"])
                     for name, info in driver.info.items()}
            # n3 carries r3 alone; n1 the client, s1 and r1.
            timeline = await driver.play(*isolate_then_grow(
                "g1", ("s1", "s2"), hosts["n3"], hosts["n1"],
            ))
            return timeline, await driver.collect(await driver.drain())
        finally:
            await cluster.stop()

    def attempt():
        return asyncio.run(asyncio.wait_for(main(), timeout=60))

    timeline, outcome = attempt()
    if not outcome.ok:
        timeline, outcome = attempt()   # retry once: CI wall clocks are noisy
    assert outcome.ok, outcome.detail
    assert outcome.subscribes == {"requested": ["s2"], "committed": ["s2"]}
    assert [(step["op"], step["target"]) for step in timeline] == [
        ("partition", "n3 | n1"), ("partition", "n3 | n1"),
        ("subscribe", "s2"),
    ]
    # No step runs early (asyncio may wake a timer a clock tick soon).
    assert all(step["at"] >= at - 0.01
               for step, at in zip(timeline, (0.3, 0.6, 0.8)))
    assert sum(outcome.statuses[node]["transport"]["dropped_partition"]
               for node in ("n1", "n3")) > 0
