"""FIG4 -- horizontal scalability / re-partitioning (paper §VII-D, Figure 4).

Regenerates the Fig. 4 panels: client throughput through the split of a
key/value store shard at 75% peak load, per-replica applied-ops and CPU
utilisation before/after, and the ~1 s client-timeout gap.
"""

from repro.harness.experiments.horizontal import (
    HorizontalConfig,
    run_horizontal,
)
from repro.harness.report import comparison_table, section, series_sparkline

PAPER_GAP_SECONDS = 1.0
PAPER_REPLICA_DROP = 0.5       # per-replica throughput and CPU halve
PAPER_LOAD_FRACTION = 0.75


def test_bench_fig4_repartitioning(run_once):
    config = HorizontalConfig(duration=60.0)
    result = run_once(run_horizontal, config)
    ba = result.before_after

    r1_ratio = ba["r1_ops_after"] / ba["r1_ops_before"]
    r2_ratio = ba["r2_ops_after"] / ba["r2_ops_before"]
    cpu1_ratio = ba["r1_cpu_after"] / ba["r1_cpu_before"]
    cpu2_ratio = ba["r2_cpu_after"] / ba["r2_cpu_before"]

    print(section("Figure 4: splitting one shard into two (75% peak load)"))
    print(
        comparison_table(
            [
                ("re-partitioning gap (s)", PAPER_GAP_SECONDS, result.gap_duration),
                ("replica 1 ops after/before", PAPER_REPLICA_DROP, r1_ratio),
                ("replica 2 ops after/before", PAPER_REPLICA_DROP, r2_ratio),
                ("replica 1 cpu after/before", PAPER_REPLICA_DROP, cpu1_ratio),
                ("replica 2 cpu after/before", PAPER_REPLICA_DROP, cpu2_ratio),
                (
                    "aggregate after/before",
                    1.0,
                    ba["client_after"] / ba["client_before"],
                ),
                ("cpu before (fraction)", PAPER_LOAD_FRACTION, ba["r1_cpu_before"]),
            ]
        )
    )
    print("client ops:", series_sparkline(result.client_throughput))
    for name in ("r1", "r2"):
        print(f"{name} applied:", series_sparkline(result.replica_throughput[name]))

    # Shape assertions.
    assert 0.4 <= r1_ratio <= 0.6
    assert 0.4 <= r2_ratio <= 0.6
    assert 0.35 <= cpu1_ratio <= 0.65
    assert 0.35 <= cpu2_ratio <= 0.65
    assert 0.9 <= ba["client_after"] / ba["client_before"] <= 1.1
    assert 0.5 <= result.gap_duration <= 3.0
    assert result.timeouts > 0     # the gap is client-timeout driven
