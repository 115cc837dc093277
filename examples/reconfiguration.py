"""Replacing the acceptor set of a running state machine (Fig. 5).

Reconfiguration as dynamic subscription: create a new stream backed by
a different set of acceptors, send a prepare hint so replicas recover
it in the background, subscribe, repoint the clients, and unsubscribe
the original stream -- all without pausing delivery.

Run:  python examples/reconfiguration.py
"""

from repro.harness.experiments.reconfig import ReconfigConfig, run_reconfig
from repro.harness.report import series_sparkline


def main():
    config = ReconfigConfig(
        duration=30.0,
        prepare_at=12.0,
        subscribe_at=15.0,
        n_threads=20,
        think_time=0.01,
    )
    print("running: replace acceptors S1/a* with S2/a* at t=15 s ...")
    result = run_reconfig(config)

    print("\nthroughput (1 s intervals):")
    print("  total:", series_sparkline(result.throughput))
    for stream in sorted(result.per_stream):
        print(f"  {stream:>5}:", series_sparkline(result.per_stream[stream],
                                                  maximum=result.steady_rate))
    print(f"\n  steady rate: {result.steady_rate:.0f} ops/s "
          f"({result.throughput_mbps:.0f} Mbps of 32 KiB values)")
    print(f"  minimum rate during the switch: "
          f"{result.min_rate_during_switch:.0f} ops/s "
          f"(overhead {result.overhead_ratio:.1%})")
    print(f"  client latency p95: {result.latency_p95_ms:.2f} ms")
    print(f"  client timeouts: {result.timeouts}")
    print("\nThe old acceptors are idle from t=15 on and can be shut down;")
    print("the state machine never stopped.")


if __name__ == "__main__":
    main()
