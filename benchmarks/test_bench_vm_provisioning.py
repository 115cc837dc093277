"""TXT-60s -- stream provisioning time (paper §VI).

"Adding a new stream from newly created virtual machines (three
acceptors) takes approximately 60 seconds."  The benchmark boots a Heat
autoscaling group, deploys the stream when the VMs turn ACTIVE,
subscribes the replicas and measures request-to-first-delivery.
"""

from repro.harness.experiments.provisioning import (
    ProvisioningConfig,
    run_provisioning,
)
from repro.harness.report import comparison_table, section

PAPER_SECONDS = 60.0


def test_bench_stream_provisioning_time(run_once):
    result = run_once(run_provisioning, ProvisioningConfig())

    boot = result.vms_active_at - result.requested_at
    subscribe = result.first_delivery_at - result.subscribed_at
    print(section("§VI: adding a stream from freshly booted VMs"))
    print(
        comparison_table(
            [
                ("total time to new stream (s)", PAPER_SECONDS, result.total_seconds),
                ("  of which VM boot (s)", "~55-65", boot),
                ("  of which subscribe+merge (s)", "(small)", subscribe),
            ]
        )
    )
    # Dominated by VM boot, ends within the paper's ballpark.
    assert 50.0 <= result.total_seconds <= 75.0
    assert boot / result.total_seconds > 0.9
