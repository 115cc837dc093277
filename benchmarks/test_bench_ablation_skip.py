"""ABL-SKIP -- the λ/Δt skip mechanism (paper §III-B).

"To handle imbalanced traffic among streams and ensure that messages
will not be delivered at the pace of the slowest stream, processes can
skip Paxos executions in a stream."  The ablation merges a loaded
stream with an idle one, with and without skips.
"""

from repro.baselines.skip_ablation import SkipAblationConfig, run_skip_ablation
from repro.harness.report import comparison_table, section


def test_bench_ablation_skip_mechanism(run_once):
    def both():
        enabled = run_skip_ablation(SkipAblationConfig(skip_enabled=True))
        disabled = run_skip_ablation(SkipAblationConfig(skip_enabled=False))
        trickle = run_skip_ablation(
            SkipAblationConfig(skip_enabled=False, idle_stream_load=5.0)
        )
        return enabled, disabled, trickle

    enabled, disabled, trickle = run_once(both)

    print(section("Ablation: merging a loaded stream with an idle one"))
    print(
        comparison_table(
            [
                ("delivered ops/s, skips on", "full rate", enabled.delivered_rate),
                ("delivered ops/s, skips off", "0 (starved)", disabled.delivered_rate),
                (
                    "skips off + 5 ops/s trickle",
                    "pace of slowest stream",
                    trickle.delivered_rate,
                ),
            ]
        )
    )
    # With skips the idle stream advances at λ and delivery flows.
    assert enabled.delivered_rate > 50
    # Without skips the round-robin merge starves entirely...
    assert disabled.merge_blocked
    # ...and with a trickle it crawls at the slowest stream's pace.
    assert 0 < trickle.delivered_rate < 0.3 * enabled.delivered_rate
