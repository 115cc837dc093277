"""ABL-RECONF -- Elastic Paxos vs classical reconfiguration (paper §VIII-C).

Puts the Fig. 5 dynamic-subscription reconfiguration side by side with
the two strategies the paper argues against: stop-and-restart (service
downtime) and Lamport's membership-as-command (no downtime, but the
pipeline is serialized so steady throughput collapses).
"""

from repro.baselines.reconfig_baselines import (
    BaselineReconfigConfig,
    run_membership_command_reconfig,
    run_stop_restart_reconfig,
)
from repro.harness.experiments.reconfig import ReconfigConfig, run_reconfig
from repro.harness.report import comparison_table, section


def test_bench_ablation_reconfiguration_strategies(run_once):
    def all_three():
        elastic = run_reconfig(ReconfigConfig(duration=70.0))
        baseline_config = BaselineReconfigConfig(duration=70.0)
        stop = run_stop_restart_reconfig(baseline_config)
        membership = run_membership_command_reconfig(baseline_config)
        return elastic, stop, membership

    elastic, stop, membership = run_once(all_three)

    print(section("Ablation: reconfiguration strategies under the Fig. 5 load"))
    print(
        comparison_table(
            [
                ("elastic: steady ops/s", "~2150", elastic.steady_rate),
                ("elastic: downtime (s)", 0.0, 0.0 if elastic.min_rate_during_switch > 0 else 1.0),
                ("elastic: switch overhead", "none", elastic.overhead_ratio),
                ("stop-restart: steady ops/s", "same as elastic", stop.steady_rate),
                ("stop-restart: downtime (s)", ">10", stop.downtime_seconds),
                ("membership-cmd: steady ops/s", "<= elastic", membership.steady_rate),
                ("membership-cmd: switch floor (ops/s)", "deep dip (drain+phase1)",
                 membership.min_rate_during_switch),
                ("membership-cmd: p95 (ms)", "> elastic", membership.latency_p95_ms),
            ]
        )
    )
    # Elastic Paxos: no downtime, modest transient.
    assert elastic.min_rate_during_switch > 0.7 * elastic.steady_rate
    # Stop-and-restart: comparable steady state but a long outage.
    assert stop.downtime_seconds >= 8.0
    assert stop.steady_rate > 0.9 * elastic.steady_rate
    # Membership-as-command stays up but pays for serialized instances:
    # larger batches mask the throughput cost at this load, while the
    # switch (drain + Phase 1) dips deep and latency stays worse.
    assert membership.downtime_seconds <= 2.0
    assert membership.steady_rate <= 1.02 * elastic.steady_rate
    assert membership.min_rate_during_switch < 0.5 * elastic.min_rate_during_switch
    assert membership.latency_p95_ms > 1.2 * elastic.latency_p95_ms
