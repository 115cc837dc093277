"""ABL-DT -- Δt sensitivity (paper §VII-A, λ=4000 / Δt=100 ms).

Δt is the skip sampling interval: an idle stream's positions advance in
Δt-sized steps, so values of *other* streams wait on average ~Δt/2 for
the merge to cross their position.  This bench sweeps Δt and shows the
latency cost of coarse sampling -- the trade-off studied in
"Stretching Multi-Ring Paxos" (Benz et al., SAC 2015), which the
paper's implementation builds on.
"""

from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.harness.report import comparison_table, section


def run_pair(delta_t: float, duration: float = 10.0):
    """One loaded stream merged with one idle stream; report p50 latency."""
    cluster = MulticastCluster(
        ("S1", "S2"), seed=23, link_latency=0.0005, lam=4000, delta_t=delta_t
    )
    deployment = BroadcastDeployment(
        cluster, replicas=1, streams=("S1", "S2"), cpu_rate=50_000,
        value_size=1024, timeout=duration,
    )
    client = deployment.client
    client.start_threads("S1", 4)
    cluster.run(until=duration)
    return client.latency.percentile(50) * 1000.0   # ms


def test_bench_ablation_delta_t_sensitivity(run_once):
    def sweep():
        return {dt: run_pair(dt) for dt in (0.010, 0.050, 0.100, 0.200)}

    latencies = run_once(sweep)
    rows = [
        (f"p50 latency @ Δt={int(dt * 1000)} ms", "grows ~Δt", ms)
        for dt, ms in sorted(latencies.items())
    ]
    print(section("Ablation: skip sampling interval Δt vs merge latency"))
    print(comparison_table(rows))
    # Latency grows with Δt and is dominated by ~Δt/2 for coarse Δt.
    ordered = [latencies[dt] for dt in sorted(latencies)]
    assert ordered == sorted(ordered)
    assert latencies[0.200] > 4 * latencies[0.010]
    assert latencies[0.200] >= 0.35 * 200 / 2     # at least ~a third of Δt/2
    assert latencies[0.200] <= 2.0 * 200          # and not absurdly above Δt
