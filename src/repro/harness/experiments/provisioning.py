"""§VI claim -- time to add a stream from freshly booted VMs.

"Adding a new stream from newly created virtual machines (three
acceptors) takes approximately 60 seconds."  This experiment boots a
Heat autoscaling group of acceptor VMs, deploys the stream once they
are ACTIVE, subscribes the replicas, and measures the time from the
scale-up request until the first value of the new stream is delivered.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...cloud.openstack import AutoScalingGroup, CloudCompute
from ...cloud.vm import DEFAULT_BOOT_TIME
from ...runtime.kernel import every
from ..broadcast import BroadcastDeployment
from ..cluster import MulticastCluster

__all__ = ["ProvisioningConfig", "ProvisioningResult", "run_provisioning"]


@dataclass
class ProvisioningConfig:
    boot_time: float = DEFAULT_BOOT_TIME
    boot_jitter: float = 10.0
    acceptors_per_stream: int = 3
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0005
    seed: int = 4
    duration: float = 120.0


@dataclass
class ProvisioningResult:
    config: ProvisioningConfig
    requested_at: float = 0.0
    vms_active_at: float = 0.0
    subscribed_at: float = 0.0
    first_delivery_at: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.first_delivery_at - self.requested_at


def run_provisioning(
    config: ProvisioningConfig = ProvisioningConfig(),
) -> ProvisioningResult:
    cluster = MulticastCluster(
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
        n_acceptors=config.acceptors_per_stream,
    )
    env = cluster.env
    compute = CloudCompute(
        env, boot_time=config.boot_time, boot_jitter=config.boot_jitter,
        rng=cluster.rng,
    )

    # Initial stream runs on pre-existing VMs.
    for i in range(config.acceptors_per_stream):
        compute.create_server(f"S1-acc-{i}", anti_affinity_group="S1")
    cluster.add_stream("S1")

    deployment = BroadcastDeployment(cluster, replicas=1, value_size=1024)
    control, client = cluster.control, deployment.client
    client.start_threads("S1", 2)

    result = ProvisioningResult(config=config)

    def provision() -> None:
        result.requested_at = env.now
        group = AutoScalingGroup(compute, "S2-acceptors")
        vms = group.scale_up(config.acceptors_per_stream)
        compute.wait_active(vms, provisioned)

    def provisioned() -> None:
        result.vms_active_at = env.now
        cluster.add_stream("S2")
        # No explicit alignment needed: the coordinator paces skips
        # against the global virtual position clock (λ·now), so the new
        # stream tops itself up to the ensemble's position on its first
        # Δt tick.
        control.subscribe_msg(deployment.group, "S2", via_stream="S1")
        result.subscribed_at = env.now
        client.start_threads("S2", 2)

    env.call_at(5.0, provision)

    # Detect the first delivery attributed to the new stream.
    def watch() -> bool:
        counter = deployment.replicas[0].per_stream_ops.get("S2")
        if counter is not None and counter.total > 0:
            result.first_delivery_at = counter._times[0]
            return False
        return True

    every(env, 0.05, watch)
    env.run(until=config.duration)
    if result.first_delivery_at == 0.0:
        raise RuntimeError("new stream never delivered a value")
    return result
