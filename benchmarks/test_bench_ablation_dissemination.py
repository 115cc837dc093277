"""ABL-RING -- ring vs classic Phase-2 dissemination (paper §VI).

URingPaxos "pipelines acceptors in a stream": Phase 2 travels around an
acceptor ring (one hop per acceptor) instead of the classic fan-out to
all acceptors plus a quorum of replies plus a decision fan-out.  The
ring sends far fewer messages per decision at the cost of serialized
hops; this bench measures both modes under identical load.
"""

from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.harness.report import comparison_table, section


def run_mode(ring_mode: bool, duration: float = 10.0):
    cluster = MulticastCluster(
        ("S1",), seed=29, link_latency=0.0005, lam=4000, delta_t=0.05,
        ring_mode=ring_mode,
    )
    deployment = BroadcastDeployment(
        cluster, replicas=1, cpu_rate=50_000, value_size=1024
    )
    client = deployment.client
    client.start_threads("S1", 8)
    cluster.run(until=duration)
    ops = deployment.replicas[0].delivered_ops.total
    return {
        "throughput": deployment.rate_between(1.0, duration),
        "latency_p95_ms": client.latency.percentile(95) * 1000.0,
        "msgs_per_op": cluster.network.messages_sent / max(ops, 1),
    }


def test_bench_ablation_ring_vs_classic(run_once):
    def both():
        return run_mode(ring_mode=True), run_mode(ring_mode=False)

    ring, classic = run_once(both)
    print(section("Ablation: ring vs classic Phase-2 dissemination"))
    print(
        comparison_table(
            [
                ("ring: messages/op", "low (pipelined)", ring["msgs_per_op"]),
                ("classic: messages/op", "high (fan-out)", classic["msgs_per_op"]),
                ("ring: p95 latency (ms)", "~n_acceptors hops", ring["latency_p95_ms"]),
                ("classic: p95 latency (ms)", "~2 hops + quorum", classic["latency_p95_ms"]),
                ("ring: throughput (ops/s)", "-", ring["throughput"]),
                ("classic: throughput (ops/s)", "-", classic["throughput"]),
            ]
        )
    )
    # The ring needs fewer messages per decided value...
    assert ring["msgs_per_op"] < classic["msgs_per_op"]
    # ...while the classic mode wins on latency (parallel fan-out).
    assert classic["latency_p95_ms"] <= ring["latency_p95_ms"] + 0.5
    assert ring["throughput"] > 0 and classic["throughput"] > 0
