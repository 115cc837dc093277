"""The one live node assembly (``repro.runtime.node``).

``repro live`` (N nodes on one loop) and ``repro worker`` (one node per
process) both hydrate :class:`LiveNode`; these tests pin what the two
callers rely on -- the directory contract, the ``/health`` snapshot,
the paced workload, the teardown order -- and that the in-process
cluster's placement *is* the deployment plane's.
"""

from __future__ import annotations

import asyncio

from repro.deploy.topology import agent_host, build_topology
from repro.faults.invariants import InvariantSuite
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import installed
from repro.runtime import node as node_module
from repro.runtime.node import LiveNode, percentile
from repro.runtime.supervisor import LiveCluster, LiveConfig


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


class _RemoteStub:
    """What a worker puts in the directory for a stream hosted elsewhere."""

    def __init__(self, config):
        self.config = config
        self.learners: list[str] = []

    def add_learner(self, name: str) -> None:
        self.learners.append(name)


async def _single_node() -> LiveNode:
    """One self-contained node: s1, r1, r2 and the client."""
    spec = build_topology(nodes=1, streams=1, replicas=2)
    node = LiveNode.from_spec(spec, "n1", {})
    node.invariants = InvariantSuite(node.replicas)
    await node.listen()
    node.start()
    return node


async def _delivered_everywhere(node: LiveNode, count: int) -> None:
    logs = node.invariants.logs.values()
    while min(len(log.records) for log in logs) < count:
        await asyncio.sleep(0.01)


def test_node_adds_what_it_hosts_and_resolves_the_rest_through_the_directory():
    async def main():
        spec = build_topology(nodes=2, streams=2, replicas=2)
        remote = _RemoteStub(spec.stream_config("s1"))
        directory = {"s1": remote}
        node = LiveNode.from_spec(spec, "n2", directory)
        try:
            # n2 hosts s2 and r2: exactly s2 was added, s1 is untouched.
            assert list(node.deployments) == ["s2"]
            assert directory == {"s1": remote, "s2": node.deployments["s2"]}
            assert list(node.replicas) == ["r2"] and node.client is None
            # Group, initial streams and λ come from the spec.
            assert node.replicas["r2"].group == spec.group
            assert node.active_streams == list(spec.initial_streams)
            assert node.deployments["s2"].config == spec.stream_config("s2")
            await node.listen()
            node.start()
            # r2 bootstraps the initial stream s1, which lives elsewhere:
            # it registered as a learner through the caller's entry.
            assert remote.learners == ["r2"]
            assert node.deployments["s2"].started
        finally:
            await node.close()
        assert not node.deployments["s2"].started

    run(main())


def test_health_has_the_documented_keys_and_counts_from_the_suite():
    async def main():
        node = await _single_node()
        try:
            for index in range(5):
                node.multicast("s1", f"v{index}", 64)
            await _delivered_everywhere(node, 5)
            health = node.health()
        finally:
            await node.close()
        assert set(health) == {
            "node", "now", "streams", "replicas", "transport", "client",
        }
        assert health["node"] == "n1" and health["now"] > 0
        assert set(health["streams"]["s1"]) == {
            "next_instance", "positions_decided", "leading",
        }
        assert set(health["transport"]) == {"queue_depths", "counters"}
        assert health["client"] == {"submitted": 5}
        for state in health["replicas"].values():
            assert set(state) == {
                "subscriptions", "positions", "delivered",
                "pending_subscription",
            }
            assert state["subscriptions"] == ["s1"]
            assert state["delivered"] == 5      # read off the suite's log

    run(main())


def test_latency_tap_times_only_values_the_node_submitted():
    async def main():
        with installed(metrics=MetricsRegistry()):
            node = await _single_node()
        try:
            node.multicast("s1", "timed", 64)
            # Straight through the client: the node never saw it leave.
            node.client.multicast("s1", payload="untimed", size=64)
            await _delivered_everywhere(node, 2)
        finally:
            await node.close()
        # One sample per replica for the known msg_id, none for the other.
        assert len(node.latencies_ms) == len(node.replicas) == 2
        assert all(latency >= 0 for latency in node.latencies_ms)
        histogram = node.kernel.metrics.histogram("client", "latency_ms")
        assert len(histogram) == 2
        # The loop-lag probe rode on the same (installed) registry.
        assert ("n1", "loop_lag_ms") in {
            (entry["actor"], entry["name"])
            for entry in node.kernel.metrics.dump()["histograms"]
        }

    run(main())


def test_workload_follows_active_streams_and_ramps_to_rate_end(monkeypatch):
    # A virtual clock instead of wall time: the pacing is arithmetic,
    # and a loaded CI box must not be able to bend it.
    class Clock:
        now = 0.0

        def time(self) -> float:
            return self.now

    clock, delays, sent = Clock(), [], []

    async def sleep(delay: float) -> None:
        delays.append(delay)
        clock.now += delay

    async def main():
        spec = build_topology(nodes=1, streams=2, replicas=1)
        node = LiveNode.from_spec(spec, "n1", {})
        try:
            monkeypatch.setattr(node_module.asyncio, "sleep", sleep)
            node._loop = clock

            def multicast(stream, payload, size):
                sent.append((stream, payload, size))
                if len(sent) == 10:
                    node.active_streams.append("s2")    # mid-run

            node.multicast = multicast
            await node.workload(
                1.0, 100.0, burst=2, payload_size=32, rate_end=300.0
            )
        finally:
            monkeypatch.undo()
            await node.close()

    run(main())
    streams = [stream for stream, _, _ in sent]
    assert streams[:10] == ["s1"] * 10
    assert streams[10:14] == ["s1", "s2", "s1", "s2"]   # by sequence number
    assert [payload for _, payload, _ in sent[:3]] == ["m0", "m1", "m2"]
    assert {size for _, _, size in sent} == {32}
    # Linear ramp 100/s -> 300/s over one second, two values per tick:
    # the sleeps shrink from ~20 ms to ~6.7 ms and ~200 values go out.
    assert delays == sorted(delays, reverse=True)
    assert 0.019 < delays[0] <= 0.02 and 0.0066 < delays[-1] < 0.0072
    assert 190 <= len(sent) <= 210


def test_stop_actors_twice_is_harmless():
    async def main():
        node = await _single_node()
        node.stop_actors()
        node.stop_actors()
        assert not any(r.running for r in node.replicas.values())
        await node.close()                      # stops them a third time
        assert node.kernel.failures == []

    run(main())


def test_percentile_is_nearest_rank_and_none_when_empty():
    assert percentile([], 50) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_in_process_placement_is_the_deployment_planes():
    async def main():
        cluster = LiveCluster(LiveConfig(nodes=3, streams=2, replicas=3))
        spec = build_topology(3, 2, 3)
        assert [node.name for node in cluster.nodes] == [
            placed.name for placed in spec.nodes
        ]
        for node in cluster.nodes:
            hosts = set(spec.hosts_of(node.name)) - {agent_host(node.name)}
            assert set(node.transport.hosts()) == hosts
        # The surfaces the ledger and the tests read keep their order.
        assert list(cluster.directory) == ["s1", "s2"]
        assert list(cluster.replicas) == ["r1", "r2", "r3"]
        assert cluster.client is cluster.nodes[0].client
        # λ counts the ramp, which build_topology alone would not.
        ramped = LiveCluster(LiveConfig(rate=100.0, rate_ramp=5000.0))
        assert ramped.directory["s1"].config.lam == 40000

    run(main())
