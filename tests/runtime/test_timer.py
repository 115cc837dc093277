"""The periodic timer (``runtime.kernel.every``): fire, re-arm, stop on
``False``, and a cancelled timer's pending firing does nothing."""

from __future__ import annotations

import asyncio

from repro.multicast.stream import StreamDeployment
from repro.obs.trace import ListSink, Tracer, installed
from repro.paxos.config import StreamConfig
from repro.runtime.asyncio_kernel import AsyncioKernel
from repro.runtime.kernel import every
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry

from ..helpers import make_learner


def test_fires_every_interval_until_tick_returns_false():
    env = Environment()
    fired = []
    timer = every(env, 0.1, lambda: fired.append(env.now) or len(fired) < 3)
    env.run(until=1.0)
    assert [round(t, 9) for t in fired] == [0.1, 0.2, 0.3]
    assert not timer.active


def test_first_firing_may_be_immediate():
    env = Environment()
    fired = []
    every(env, 0.25, lambda: fired.append(env.now), first=0.0)
    env.run(until=0.6)
    assert fired == [0.0, 0.25, 0.5]


def test_a_cancelled_timers_pending_firing_does_nothing():
    env = Environment()
    fired = []
    timer = every(env, 0.1, lambda: fired.append("old"))
    env.run(until=0.15)
    timer.cancel()                   # its firing at 0.2 is already armed
    every(env, 0.1, lambda: fired.append("new"))
    env.run(until=0.5)
    assert fired == ["old", "new", "new", "new"]


def test_a_tick_that_cancels_its_timer_is_not_rearmed():
    env = Environment()
    fired = []

    def tick():
        fired.append(env.now)
        timer.cancel()

    timer = every(env, 0.1, tick)
    env.run(until=1.0)
    assert len(fired) == 1


def test_runs_on_the_live_kernel():
    async def main():
        kernel = AsyncioKernel()
        fired = []
        every(kernel, 0.01, lambda: fired.append(1) or len(fired) < 3)
        deadline = kernel.now + 5.0
        while len(fired) < 3 and kernel.now < deadline:
            await asyncio.sleep(0.01)   # the poll of a wait on the effect
        await asyncio.sleep(0.05)   # a wait for an absence: no fourth firing
        assert fired == [1, 1, 1]

    asyncio.run(asyncio.wait_for(main(), timeout=10))


def test_a_coordinator_restarted_in_one_instant_paces_once_per_delta_t():
    # Crash and recovery at the same instant: the crashed incarnation's
    # skip firing is still in the calendar and must not pace the stream
    # a second time.  (The recovered coordinator's ballot is already
    # promised, so it leads only after its phase-1 retry, at ~1.55.)
    sink = ListSink()
    with installed(tracer=Tracer(sinks=[sink])):
        env = Environment()
        net = Network(
            env, rng=RngRegistry(3), default_link=LinkSpec(latency=0.001)
        )
        config = StreamConfig(
            name="S1", acceptors=("S1/a1", "S1/a2", "S1/a3"), delta_t=0.1,
        )
        deployment = StreamDeployment(env, net, config)
        make_learner(deployment, "learner", lambda i, b: None)
        deployment.start()
        env.run(until=0.55)
        deployment.coordinator.crash()
        deployment.coordinator.recover()
        env.run(until=3.01)
    skips = [e["ts"] for e in sink.events
             if e["kind"] == "coord.skip" and 2.0 < e["ts"] <= 3.0]
    assert len(skips) == 10
