"""ABL-BATCH -- value batching (paper §V-B).

"Since multiple values or skip messages can be decided in one Paxos
instance (batching), in our prototype the pointer refers to a value."
Batching amortizes the per-instance protocol cost; this bench sweeps
the batch size under a coordinator whose CPU charges per instance, the
regime where batching matters.
"""

from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.harness.report import comparison_table, section


def run_batch(batch_max_tokens: int, duration: float = 8.0):
    cluster = MulticastCluster(
        ("S1",), seed=37, link_latency=0.0005,
        lam=40_000,                     # keep λ above the sweep's reach
        delta_t=0.05,
        batch_max_tokens=batch_max_tokens,
        cpu_cost_per_batch=0.0005,      # 0.5 ms of coordinator CPU/instance
        window=8,                       # < thread count: pending queues form
    )
    deployment = BroadcastDeployment(
        cluster, replicas=1, cpu_rate=100_000, value_size=512
    )
    deployment.client.start_threads("S1", 64)
    cluster.run(until=duration)
    return deployment.rate_between(1.0, duration)


def test_bench_ablation_batching(run_once):
    def sweep():
        return {size: run_batch(size) for size in (1, 4, 16)}

    rates = run_once(sweep)
    print(section("Ablation: batch size under a per-instance CPU cost"))
    print(
        comparison_table(
            [
                (f"throughput @ batch={size}", "grows with batch", rate)
                for size, rate in sorted(rates.items())
            ]
        )
    )
    # With ~2000 instances/s of coordinator CPU, unbatched tops out
    # around 2000 ops/s; batches of 16 lift it several-fold.
    assert rates[1] < 2600
    assert rates[4] > 1.8 * rates[1]
    assert rates[16] >= 0.99 * rates[4]
