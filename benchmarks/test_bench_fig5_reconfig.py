"""FIG5 -- acceptor reconfiguration under full load (paper §VII-E, Figure 5).

Regenerates the Fig. 5 series: ~550 Mbps of 32 KiB values flowing while
the replicas switch from stream S1 (old acceptors) to stream S2 (new
acceptors) with a prepare hint -- no visible overhead, p95 = 2.7 ms.
"""

from repro.harness.experiments.reconfig import ReconfigConfig, run_reconfig
from repro.harness.report import comparison_table, section, series_sparkline
from repro.harness.report import flat_through

PAPER_MBPS = 550.0
PAPER_P95_MS = 2.7


def test_bench_fig5_reconfiguration(run_once):
    config = ReconfigConfig(duration=70.0)
    result = run_once(run_reconfig, config)

    print(section("Figure 5: replacing the acceptor set under full load"))
    print(
        comparison_table(
            [
                ("steady throughput (Mbps)", PAPER_MBPS, result.throughput_mbps),
                ("latency p95 (ms)", PAPER_P95_MS, result.latency_p95_ms),
                ("switch overhead (fraction)", 0.0, result.overhead_ratio),
                ("client timeouts", 0, result.timeouts),
            ]
        )
    )
    print("total :", series_sparkline(result.throughput))
    for stream in sorted(result.per_stream):
        print(f"{stream:>6}:", series_sparkline(result.per_stream[stream]))

    # Shape assertions: full-rate through the switch, traffic moves
    # wholesale from S1 to S2, latency in the low milliseconds.
    assert 400 <= result.throughput_mbps <= 700
    assert result.latency_p95_ms < 6.0
    assert result.overhead_ratio < 0.20
    assert result.timeouts == 0
    assert flat_through(
        result.throughput,
        start=config.subscribe_at + 2,
        end=config.duration - 1,
        baseline=result.steady_rate,
    )
    # S1 stops delivering shortly after the switch; S2 takes over.
    s1_after = [v for t, v in result.per_stream["S1"] if t >= config.subscribe_at + 3]
    s2_after = [v for t, v in result.per_stream["S2"] if t >= config.subscribe_at + 3]
    assert max(s1_after) == 0
    assert min(s2_after) > 0.8 * result.steady_rate
