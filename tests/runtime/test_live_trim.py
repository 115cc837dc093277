"""The in-process live cluster trims its acceptor logs: both edges.

* A runtime subscribe to a stream whose acceptors already trimmed a
  prefix seeds each replica's token log at ``RecoverReply
  .base_position`` and commits; the run's verdict is clean.
* A trim forced past a replica that is still consuming ends that
  replica's learner with an error the kernel collects: the verdict
  fails within the drain timeout instead of the run hanging.

Wall-clock runs on shared machines can stall, so the subscribe test
retries once before failing; every wait is on an effect.
"""

from __future__ import annotations

import asyncio

from repro.paxos.learner import LearnerCore
from repro.runtime.supervisor import LiveCluster, LiveConfig


async def _until(predicate, timeout: float = 20.0) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _traffic(cluster: LiveCluster, seconds: float) -> None:
    """A value to every stream the client routes to, each 10 ms."""
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds
    sequence = 0
    while loop.time() < end:
        for stream in cluster.client_node.active_streams:
            cluster.multicast(stream, sequence)
            sequence += 1
        await asyncio.sleep(0.01)


def _trimmed(cluster: LiveCluster, stream: str) -> list[int]:
    return [
        acceptor.core.log.trimmed_below
        for acceptor in cluster.directory[stream].acceptors
    ]


async def _subscribe_after_trim(monkeypatch):
    rebased: dict[str, int] = {}
    recover = LearnerCore.on_recover_reply

    def recording(self, msg, src):
        if msg.trimmed_below > self.next_instance:
            rebased[self.owner] = msg.base_position
        recover(self, msg, src)

    monkeypatch.setattr(LearnerCore, "on_recover_reply", recording)
    cluster = LiveCluster(LiveConfig(
        streams=2, replicas=2, rate=200.0, drain_timeout=20.0,
    ))
    await cluster.start()
    try:
        await _traffic(cluster, 0.5)
        # Nobody consumes s2 yet, so only a forced trim drops its
        # prefix: s2's skip instances decided so far.
        s2 = cluster.directory["s2"]
        below = s2.coordinator.next_instance // 2
        assert below > 0
        s2.coordinator.trim(below)
        assert await _until(lambda: min(_trimmed(cluster, "s2")) == below)
        base = s2.acceptors[0].core.positions_trimmed
        assert base > 0
        traffic = asyncio.ensure_future(_traffic(cluster, 1.5))
        committed = await cluster.subscribe("s2")
        if committed:
            cluster.client_node.active_streams.append("s2")
        await traffic
        outcome = await cluster.driver.collect(await cluster.drain())
    finally:
        await cluster.stop()
    return cluster, committed, outcome, rebased, base


def test_a_runtime_subscribe_to_a_trimmed_stream_seeds_at_its_base(
    monkeypatch,
):
    attempt = asyncio.run(_subscribe_after_trim(monkeypatch))
    if not attempt[2].ok:
        attempt = asyncio.run(_subscribe_after_trim(monkeypatch))
    cluster, committed, outcome, rebased, base = attempt
    assert committed and outcome.ok, outcome.detail
    assert sorted(rebased) == sorted(cluster.replicas)
    for name, replica in cluster.replicas.items():
        assert replica.subscriptions == ("s1", "s2")
        assert replica.logs["s2"].base == rebased[name] >= base
        assert replica.merger.stats.per_stream_delivered["s2"] > 0


async def _trim_past_a_consumer():
    cluster = LiveCluster(LiveConfig(
        streams=1, replicas=2, rate=200.0, drain_timeout=2.0,
    ))
    lagging = cluster.replicas["g1/r2"]
    held = False
    await cluster.start()
    try:
        await _traffic(cluster, 0.3)
        core = lagging.learners["s1"]
        assert core.delivered_instances > 0
        learn = core.on_decision
        core.on_decision = lambda msg, src: None if held else learn(msg, src)
        held = True
        behind = core.next_instance
        await _traffic(cluster, 0.5)
        coordinator = cluster.directory["s1"].coordinator
        below = coordinator.next_instance - 2
        assert below > behind + 1
        coordinator.trim(below)
        assert await _until(lambda: min(_trimmed(cluster, "s1")) >= below)
        held = False        # its next decision opens a gap it cannot fill
        traffic = asyncio.ensure_future(_traffic(cluster, 20.0))
        await _until(
            lambda: any(node.kernel.failures for node in cluster.nodes)
        )
        traffic.cancel()
        await asyncio.gather(traffic, return_exceptions=True)
        outcome = await cluster.driver.collect(await cluster.drain())
    finally:
        await cluster.stop()
    return outcome


def test_a_trim_forced_past_a_live_consumer_fails_the_verdict():
    outcome = asyncio.run(asyncio.wait_for(_trim_past_a_consumer(), 60.0))
    assert not outcome.ok
    failures = sum(outcome.kernel_failures.values(), [])
    assert any(
        "trimmed past an active consumer" in failure for failure in failures
    ), outcome.detail
    assert "kernel failures" in outcome.detail
