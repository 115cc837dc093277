"""End-to-end autoscaling: measured load -> booted VMs -> new stream.

§VI's throughput-driven scale-out is the one elasticity controller with
a decide-rate ceiling at 80% of one stream's capacity, signals read off
the installed metrics registry, and the cloud model's VM-booting
executor.
"""

from repro.cloud.openstack import CloudCompute, VmExecutor
from repro.elasticity.controller import ElasticityController
from repro.elasticity.policy import DecideRateCeiling, PolicyEngine
from repro.elasticity.signals import SimSignalSource
from repro.harness.broadcast import BroadcastClient, BroadcastReplica
from repro.multicast.api import MulticastClient
from repro.multicast.stream import StreamDeployment
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import installed
from repro.paxos.config import StreamConfig
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry

LAM = 1000
CAPACITY = 300.0


def build(seed=81, boot_time=5.0):
    registry = MetricsRegistry()
    with installed(metrics=registry):
        env = Environment()
    rng = RngRegistry(seed)
    net = Network(env, rng=rng, default_link=LinkSpec(latency=0.001))
    compute = CloudCompute(env, boot_time=boot_time, boot_jitter=0.5, rng=rng)
    directory = {}

    def deploy(name):
        config = StreamConfig(
            name=name,
            acceptors=(f"{name}/a1", f"{name}/a2", f"{name}/a3"),
            lam=LAM,
            delta_t=0.05,
            value_rate_limit=CAPACITY,
        )
        deployment = StreamDeployment(env, net, config)
        directory[name] = deployment
        deployment.start()
        return deployment

    for i in range(3):
        compute.create_server(f"S1-acc-{i}", anti_affinity_group="S1")
    deploy("S1")
    replica = BroadcastReplica(env, net, "replica", "replicas", directory,
                               cpu_rate=10_000)
    replica.bootstrap(["S1"])
    control = MulticastClient(env, net, "control", directory)
    client = BroadcastClient(env, net, "client", directory, value_size=512,
                             rng=rng.stream("c"))
    provisioned = []

    def provision(action, vms):
        provisioned.append((env.now, action.stream))
        deploy(action.stream)
        control.subscribe_msg("replicas", action.stream, via_stream=action.via)
        client.start_threads(action.stream, 8)

    controller = ElasticityController(
        SimSignalSource(env, registry, {"replica": replica}, directory),
        PolicyEngine(
            (DecideRateCeiling(ceiling=0.8 * CAPACITY),),
            sustain=1, cooldown=0.0, max_streams=3,
        ),
        VmExecutor(compute, provision),
        env=env,
        interval=2.0,
    )
    controller.start()
    return env, compute, replica, client, provisioned


def test_controller_adds_stream_and_capacity_grows():
    env, compute, replica, client, provisioned = build()
    client.start_threads("S1", 8)   # saturates one stream's cap
    env.run(until=40.0)
    assert provisioned, "never scaled"
    first_scale_at, stream = provisioned[0]
    assert stream == "S2"
    assert first_scale_at > 5.0   # had to wait out the VM boot
    assert replica.subscriptions == ("S1", "S2")
    before = replica.delivered_ops.rate_between(2.0, 7.0)
    after = replica.delivered_ops.rate_between(30.0, 40.0)
    assert after > 1.3 * before
    # The booted acceptor VMs exist, anti-affinity respected.
    acceptor_vms = [n for n in compute.servers if "stream-1-acceptors" in n]
    assert len(acceptor_vms) == 3
    hosts = {compute.servers[n].physical_host for n in acceptor_vms}
    assert len(hosts) == 3


def test_controller_idle_load_never_scales():
    env, compute, replica, client, provisioned = build(seed=82)
    client.start_threads("S1", 1)   # far below the watermark
    env.run(until=30.0)
    assert provisioned == []
    assert replica.subscriptions == ("S1",)


def test_vm_deleted_mid_boot_does_not_wedge_the_autoscaler():
    env, compute, replica, client, provisioned = build()
    client.start_threads("S1", 8)
    env.run(until=6.0)      # the first boot started at t=4
    lost = [vm for vm in compute.servers.values()
            if vm.name.startswith("stream-1-acceptors")]
    assert len(lost) == 3 and not any(vm.is_active for vm in lost)
    compute.delete_server(lost[0].name)
    env.run(until=40.0)
    # The lost boot was abandoned whole and S2 came from a fresh one.
    assert all(not vm.is_active for vm in lost)
    assert provisioned and provisioned[0][1] == "S2"
    assert provisioned[0][0] > 6.0 + 5.0
    assert replica.subscriptions[:2] == ("S1", "S2")
    fresh = [vm for vm in compute.servers.values()
             if vm.name.startswith("stream-1-acceptors") and vm.is_active]
    assert len(fresh) == 3 and not set(fresh) & set(lost)
