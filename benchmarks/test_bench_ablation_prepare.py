"""ABL-PREP -- the prepare_msg optimization (paper §V-C).

Fig. 3 subscribes *without* the hint and shows a dip while the new
stream is recovered; Fig. 5 subscribes *with* it and shows none.  This
ablation runs the same subscription twice and quantifies the dip.
"""

from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.harness.report import comparison_table, section
from repro.harness.report import dip_and_recovery


def _dip(result, config):
    baseline = result.interval_averages[0]
    return dip_and_recovery(
        result.throughput,
        event_time=config.add_interval,
        window=10.0,
        baseline=baseline,
    )


def test_bench_ablation_prepare_msg(run_once):
    # One subscription is enough to expose the effect; heavier recovery
    # cost makes the no-hint stall clearly visible.
    base = dict(
        n_streams=2,
        add_interval=15.0,
        duration=30.0,
        recovery_instance_cost=0.004,
    )

    def both():
        without = run_vertical(VerticalConfig(use_prepare=False, **base))
        with_hint = run_vertical(VerticalConfig(use_prepare=True, **base))
        return without, with_hint

    without, with_hint = run_once(both)
    depth_no, recovery_no = _dip(without, without.config)
    depth_yes, recovery_yes = _dip(with_hint, with_hint.config)

    print(section("Ablation: subscription with vs without prepare_msg"))
    print(
        comparison_table(
            [
                ("dip floor, no hint (frac of rate)", "deep (Fig. 3)", depth_no),
                ("dip floor, with hint", "~1.0 (Fig. 5)", depth_yes),
                ("recovery time, no hint (s)", ">0", recovery_no),
                ("recovery time, with hint (s)", "~0", recovery_yes),
            ]
        )
    )
    # Without the hint the merge stalls while scanning the new stream.
    assert depth_no < 0.85
    # With it, recovery happened in the background: no meaningful dip.
    assert depth_yes > depth_no + 0.1
    assert depth_yes > 0.9
    assert recovery_yes <= recovery_no
