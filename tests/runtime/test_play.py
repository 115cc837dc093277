"""One schedule, both backends.

A plan is a :class:`~repro.faults.schedule.Schedule` plus its control
ops, written once over one :class:`~repro.deploy.topology.TopologySpec`
and its names: cut the replica-only node's hosts off from the client
node's for a while, heal, then subscribe the group to its second
stream.  The simulator runs the plan on the spec's streams and replicas
through :class:`~repro.faults.runner.ScenarioRunner` (every invariant
checked throughout; placement is ignored there, and a host no actor
carries is cut from nothing); an in-process live cluster placed by the
same spec runs it through :meth:`~repro.runtime.driver.RunDriver.play`
(the run driver's verdict).  Both must come out clean.
"""

from __future__ import annotations

import asyncio

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import ScenarioSpec
from repro.faults.schedule import ControlOp, PartitionWindow, Schedule
from repro.runtime.supervisor import LiveCluster, LiveConfig

CONFIG = LiveConfig(nodes=3, streams=2, replicas=3, duration=1.5, rate=100.0,
                    drain_timeout=20.0)
SPEC = CONFIG.topology()
(GROUP, INITIAL), = SPEC.groups.items()
CLIENT = SPEC.client_node()
# The node of replicas alone: no stream and no client on it.
ISOLATED = next(node.name for node in SPEC.nodes
                if node.replicas and not node.streams and not node.client)
GROWN = next(stream for stream in SPEC.streams if stream not in INITIAL)

CUT = PartitionWindow(start=0.3, end=0.6, side_a=SPEC.hosts_of(ISOLATED),
                      side_b=SPEC.hosts_of(CLIENT))
SCHEDULE = Schedule("isolate-then-grow", (CUT,))
CONTROL = (ControlOp(at=0.8, kind="subscribe", group=GROUP, stream=GROWN,
                     via=INITIAL[0]),)


def test_one_plan_runs_clean_on_the_simulator():
    result = ScenarioRunner(ScenarioSpec(
        name="isolate-then-grow",
        description="one plan, both backends",
        topology=SPEC,
        duration=4.0,
        schedule=lambda _seed: SCHEDULE,
        control=CONTROL,
    )).run()
    assert [text for _at, text in result.timeline] == [
        "begin " + CUT.describe(), "end " + CUT.describe(),
    ]
    assert sorted(result.delivered) == sorted(SPEC.all_replicas())
    assert min(result.delivered.values()) > 0


def test_the_same_plan_runs_clean_on_a_live_cluster():
    async def main():
        cluster = LiveCluster(CONFIG)
        assert cluster.spec == SPEC
        try:
            await cluster.start()
            timeline = await cluster.driver.play(SCHEDULE, CONTROL)
            return timeline, await cluster.driver.collect(
                await cluster.driver.drain())
        finally:
            await cluster.stop()

    def attempt():
        return asyncio.run(asyncio.wait_for(main(), timeout=60))

    timeline, outcome = attempt()
    if not outcome.ok:
        timeline, outcome = attempt()   # retry once: CI wall clocks are noisy
    assert outcome.ok, outcome.detail
    assert outcome.subscribes == {"requested": [GROWN], "committed": [GROWN]}
    cut = f"{ISOLATED} | {CLIENT}"
    assert [(step["op"], step["target"]) for step in timeline] == [
        ("partition", cut), ("partition", cut), ("subscribe", GROWN),
    ]
    # No step runs early (asyncio may wake a timer a clock tick soon).
    assert all(step["at"] >= at - 0.01
               for step, at in zip(timeline, (0.3, 0.6, 0.8)))
    assert sum(outcome.statuses[node]["transport"]["dropped_partition"]
               for node in (ISOLATED, CLIENT)) > 0
