"""Closing the loop: throughput-driven autoscaling (paper §VI).

"A controller or a client can create or destroy virtual machines,
forming additional streams depending on the currently measured
application throughput."  This example runs the elasticity controller
over the cloud model: when the measured decide rate per stream nears one
stream's capacity, the VM executor boots three acceptor VMs through a
Heat-style autoscaling group, deploys a stream on them once ACTIVE and
subscribes the replicas -- fully automatic vertical scaling.

(VM boot time is scaled down to 6 s so the demo runs quickly; the
paper's real boots take ~60 s, see benchmarks/test_bench_vm_provisioning.)

Run:  python examples/autoscaling_controller.py
"""

from repro.cloud.openstack import CloudCompute, VmExecutor
from repro.elasticity.controller import ElasticityController
from repro.elasticity.policy import DecideRateCeiling, PolicyEngine
from repro.elasticity.signals import SimSignalSource
from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import installed

LAM = 1000
PER_STREAM_CAPACITY = 300.0   # ops/s one stream sustains (throttled)
HIGH_WATERMARK = 0.8


def main():
    registry = MetricsRegistry()   # the coordinators' decide counters
    with installed(metrics=registry):
        cluster = MulticastCluster(
            seed=11, lam=LAM, value_rate_limit=PER_STREAM_CAPACITY
        )
    env, directory = cluster.env, cluster.directory
    compute = CloudCompute(env, boot_time=6.0, boot_jitter=1.0, rng=cluster.rng)

    # Initial stream on pre-existing VMs.
    for i in range(3):
        compute.create_server(f"S1-acc-{i}", anti_affinity_group="S1")
    cluster.add_stream("S1")

    deployment = BroadcastDeployment(
        cluster, replicas=1, cpu_rate=5000, value_size=1024
    )
    [replica], client = deployment.replicas, deployment.client
    client.start_threads("S1", 8)   # demands more than one stream can give

    scale_events = []

    def provision_stream(action, vms):
        name = action.stream
        print(f"  t={env.now:5.1f}s  VMs {[vm.name for vm in vms]} ACTIVE; "
              f"deploying stream {name} and subscribing")
        cluster.add_stream(name)   # self-aligns: skips pace against λ·now
        cluster.control.subscribe_msg(
            deployment.group, name, via_stream=action.via
        )
        client.start_threads(name, 8)
        scale_events.append((env.now, len(directory)))

    controller = ElasticityController(
        SimSignalSource(env, registry, {replica.name: replica}, directory),
        PolicyEngine(
            (DecideRateCeiling(ceiling=HIGH_WATERMARK * PER_STREAM_CAPACITY),),
            sustain=1, cooldown=0.0, max_streams=3,
        ),
        VmExecutor(compute, provision_stream),
        env=env,
        interval=2.0,
    )
    controller.start()

    env.run(until=40.0)

    print("\nscale events (time, streams):",
          [(round(t, 1), n) for t, n in scale_events])
    print("final subscriptions:", replica.subscriptions)
    rates = []
    for window in ((2, 8), (18, 24), (32, 38)):
        rates.append(replica.delivered_ops.rate_between(*window))
        print(f"throughput over t={window}: {rates[-1]:6.0f} ops/s")
    acceptor_vms = [
        vm for name, vm in compute.servers.items()
        if name.startswith("stream-1-acceptors")
    ]
    print("S2's acceptor VMs on hosts:",
          sorted(vm.physical_host for vm in acceptor_vms))
    assert len(scale_events) >= 1, "controller never scaled"
    assert len({vm.physical_host for vm in acceptor_vms}) == 3  # anti-affine
    assert rates[-1] > 1.3 * rates[0], "capacity did not grow"
    print("\nthe controller added streams as load saturated capacity ✓")


if __name__ == "__main__":
    main()
