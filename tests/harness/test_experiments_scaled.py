"""Scaled-down runs of every experiment: the shapes must already hold.

The benchmarks run the full paper-sized experiments; these tests run
miniature versions so the whole suite stays fast while still covering
the experiment code paths end to end.
"""

import pytest

from repro.baselines.reconfig_baselines import (
    BaselineReconfigConfig,
    run_membership_command_reconfig,
    run_stop_restart_reconfig,
)
from repro.baselines.skip_ablation import SkipAblationConfig, run_skip_ablation
from repro.baselines.static_broadcast import (
    StaticBroadcastConfig,
    run_static_broadcast,
)
from repro.harness.experiments.horizontal import (
    HorizontalConfig,
    run_horizontal,
)
from repro.harness.experiments.reconfig import ReconfigConfig, run_reconfig
from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.harness.report import is_monotonic_increasing


def test_vertical_miniature_staircase():
    config = VerticalConfig(
        n_streams=3,
        add_interval=3.0,
        duration=9.0,
        per_stream_limit=200.0,
        replica_cpu_rate=1000.0,
        lam=500,
        delta_t=0.05,
    )
    result = run_vertical(config)
    assert len(result.interval_averages) == 3
    assert is_monotonic_increasing(result.interval_averages, tolerance=0.05)
    assert result.interval_averages[1] > 1.5 * result.interval_averages[0]
    assert result.subscribe_times == pytest.approx([3.0, 6.0])


def test_vertical_with_prepare_has_smaller_dip():
    base = dict(
        n_streams=2, add_interval=4.0, duration=8.0,
        per_stream_limit=200.0, replica_cpu_rate=1000.0,
        lam=500, delta_t=0.05, recovery_instance_cost=0.01,
    )
    without = run_vertical(VerticalConfig(use_prepare=False, **base))
    with_hint = run_vertical(VerticalConfig(use_prepare=True, **base))
    floor_without = min(v for t, v in without.throughput if 4.0 <= t <= 7.0)
    floor_with = min(v for t, v in with_hint.throughput if 4.0 <= t <= 7.0)
    assert floor_with > floor_without


def test_horizontal_miniature_halving():
    config = HorizontalConfig(
        duration=24.0,
        split_at=10.0,
        inform_delay=2.0,
        n_threads=30,
        replica_cpu_rate=1500.0,
        lam=1000,
        delta_t=0.05,
        seed=4,
    )
    result = run_horizontal(config)
    ba = result.before_after
    assert ba["r1_ops_after"] / ba["r1_ops_before"] == pytest.approx(0.5, abs=0.12)
    assert ba["r2_ops_after"] / ba["r2_ops_before"] == pytest.approx(0.5, abs=0.12)
    assert ba["client_after"] / ba["client_before"] == pytest.approx(1.0, abs=0.15)
    assert result.timeouts > 0


def test_reconfig_miniature_switch():
    config = ReconfigConfig(
        duration=20.0,
        prepare_at=8.0,
        subscribe_at=10.0,
        n_threads=10,
        think_time=0.01,
        lam=1000,
        delta_t=0.05,
    )
    result = run_reconfig(config)
    assert result.timeouts == 0
    s1_tail = [v for t, v in result.per_stream["S1"] if t >= 14.0]
    s2_tail = [v for t, v in result.per_stream["S2"] if t >= 14.0]
    assert max(s1_tail) == 0
    assert min(s2_tail) > 0
    assert result.overhead_ratio < 0.35


def test_static_broadcast_stays_flat():
    config = StaticBroadcastConfig(
        duration=12.0,
        add_threads_interval=3.0,
        n_steps=3,
        stream_limit=200.0,
        replica_cpu_rate=1000.0,
        lam=500,
        delta_t=0.05,
    )
    result = run_static_broadcast(config)
    # More threads, same single stream: the cap does not move.
    first, last = result.interval_averages[0], result.interval_averages[-1]
    assert last <= 1.25 * first
    assert result.scaling_factor < 1.3


def test_skip_ablation_shapes():
    on = run_skip_ablation(SkipAblationConfig(duration=6.0, skip_enabled=True))
    off = run_skip_ablation(SkipAblationConfig(duration=6.0, skip_enabled=False))
    assert on.delivered_rate > 10
    assert off.merge_blocked


def test_reconfig_baselines_miniature():
    config = BaselineReconfigConfig(
        duration=24.0,
        reconfigure_at=10.0,
        n_threads=10,
        think_time=0.01,
        restart_downtime=4.0,
        lam=1000,
        delta_t=0.05,
    )
    stop = run_stop_restart_reconfig(config)
    assert stop.downtime_seconds >= 3.0
    assert stop.steady_rate > 0

    membership = run_membership_command_reconfig(config)
    assert membership.steady_rate > 0
    # Window=1 serialization never beats the pipelined deployment, and
    # the drain+Phase-1 switch dips visibly.
    assert membership.steady_rate <= 1.05 * stop.steady_rate
    assert membership.min_rate_during_switch < 0.9 * membership.steady_rate
