"""Vertical scalability demo (the Fig. 3 scenario, scaled down).

Atomic broadcast over one throttled stream is the bottleneck; every few
seconds the replicas dynamically subscribe to another stream, and the
aggregate throughput climbs in steps.

Run:  python examples/vertical_scaling.py
"""

from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.harness.report import series_sparkline


def main():
    config = VerticalConfig(
        n_streams=3,
        add_interval=5.0,
        duration=15.0,
        per_stream_limit=400.0,
        replica_cpu_rate=1500.0,
        lam=1000,
    )
    print("running: add a stream every 5 s (3 streams total) ...")
    result = run_vertical(config)

    print("\nthroughput (1 s intervals):")
    print(" ", series_sparkline(result.throughput))
    for index, average in enumerate(result.interval_averages):
        streams = index + 1
        print(f"  {streams} stream(s): {average:7.0f} ops/s")
    print(f"  scaling with {config.n_streams} streams: "
          f"{result.scaling_factor:.2f}x")
    print(f"  client latency p95: {result.latency_p95_ms:.1f} ms")
    print("\nNote the dip right after each subscription: the paper's Fig. 3")
    print("runs without prepare_msg, so the merge stalls while the new")
    print("stream is recovered; see examples/reconfiguration.py for the")
    print("hint-assisted, stall-free variant.")


if __name__ == "__main__":
    main()
