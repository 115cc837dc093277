"""FIG3 -- vertical scalability (paper §VII-C, Figure 3).

Regenerates the Fig. 3 series: aggregated replica throughput while a
new stream is subscribed every 15 s, per-phase interval averages, the
post-subscribe dip, and the 95th-percentile latency.
"""

from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.harness.report import comparison_table, section, series_sparkline
from repro.harness.report import is_monotonic_increasing, step_ratios

PAPER_INTERVAL_AVERAGES = [735.0, 1498.0, 2391.0, 2660.0]
PAPER_SCALING = 3.62
PAPER_P95_MS = 8.3


def test_bench_fig3_vertical_scalability(run_once):
    result = run_once(run_vertical, VerticalConfig())

    rows = [
        (f"interval {i + 1} avg (ops/s)", paper, measured)
        for i, (paper, measured) in enumerate(
            zip(PAPER_INTERVAL_AVERAGES, result.interval_averages)
        )
    ]
    rows.append(("scaling factor (4 streams)", PAPER_SCALING, result.scaling_factor))
    rows.append(("latency p95 (ms)", PAPER_P95_MS, result.latency_p95_ms))
    print(section("Figure 3: dynamically adding streams (every 15 s)"))
    print(comparison_table(rows))
    print("throughput:", series_sparkline(result.throughput))
    for stream in sorted(result.per_stream):
        print(f"{stream:>10}:", series_sparkline(result.per_stream[stream]))

    # Shape assertions: staircase up, diminishing return, sane latency.
    assert is_monotonic_increasing(result.interval_averages, tolerance=0.02)
    ratios = step_ratios(result.interval_averages)
    assert 1.7 <= ratios[1] <= 2.3       # second stream roughly doubles
    assert 3.0 <= ratios[3] <= 4.0       # four streams: 3-4x (paper 3.62)
    assert ratios[3] < 4.0               # replicas saturate below linear
    assert result.latency_p95_ms < 20.0
    # The subscribe instants happened on schedule.
    assert [round(t) for t in result.subscribe_times] == [15, 30, 45]
