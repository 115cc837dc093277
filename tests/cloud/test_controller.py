"""§VI's throughput-driven scale-out as the one elasticity controller:
a decide-rate ceiling at the watermark, the cloud model's VM-booting
executor, and a stub signal source standing in for the cluster."""

import pytest

from repro.cloud.openstack import CloudCompute, VmExecutor
from repro.elasticity.controller import ElasticityController
from repro.elasticity.policy import DecideRateCeiling, PolicyEngine
from repro.elasticity.signals import SignalSnapshot
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry


class LoadSource:
    """Every stream provisioned so far is committed and shares a fixed
    offered ``rate`` evenly."""

    def __init__(self, env, rate):
        self.env = env
        self.rate = rate
        self.streams = ["S1"]

    def sample(self):
        streams = tuple(self.streams)
        return SignalSnapshot(
            at=self.env.now, streams=streams, provisioned=streams,
            pending_subscription=False,
            decide_rate={s: self.rate / len(streams) for s in streams},
        )


def make_world(rate, capacity=100.0, watermark=0.8, max_streams=4):
    env = Environment()
    compute = CloudCompute(env, boot_time=5.0, boot_jitter=0.0, rng=RngRegistry(1))
    source = LoadSource(env, rate)
    provisioned = []

    def provision(action, vms):
        provisioned.append((env.now, action.stream, len(vms)))
        source.streams.append(action.stream)

    controller = ElasticityController(
        source,
        PolicyEngine(
            (DecideRateCeiling(ceiling=watermark * capacity),),
            sustain=1, cooldown=0.0, max_streams=max_streams,
        ),
        VmExecutor(compute, provision),
        env=env,
        interval=2.0,
    )
    controller.start()
    return env, controller, provisioned


def test_no_scale_up_below_watermark():
    env, controller, provisioned = make_world(rate=50.0)   # 50 < 0.8*100
    env.run(until=20.0)
    assert provisioned == []
    assert controller.executed == []


def test_scales_up_when_saturated():
    env, controller, provisioned = make_world(rate=95.0)
    env.run(until=30.0)
    assert provisioned, "controller never provisioned a stream"
    at, stream, n_vms = provisioned[0]
    assert stream == "S2"
    assert n_vms == 3
    assert at >= 5.0   # waits for the VMs to boot
    assert len(provisioned) == 1   # 95/2 per stream is below the watermark


def test_respects_max_streams():
    env, controller, provisioned = make_world(rate=10_000.0, max_streams=2)
    env.run(until=60.0)
    assert [stream for _at, stream, _n in provisioned] == ["S2"]


def test_one_provisioning_at_a_time():
    env, controller, provisioned = make_world(rate=10_000.0, max_streams=8)
    env.run(until=30.0)
    # Scale-ups are serialized: each needs a 5 s boot, samples every 2 s.
    times = [at for at, _s, _n in provisioned]
    assert len(times) > 1
    assert all(b - a >= 5.0 for a, b in zip(times, times[1:]))


def test_stop_halts_sampling():
    env, controller, provisioned = make_world(rate=10_000.0)
    controller.stop()
    env.run(until=20.0)
    assert provisioned == []
    assert controller.last_snapshot is None


def test_parameter_validation():
    env = Environment()
    compute = CloudCompute(env, rng=RngRegistry(1))
    source = LoadSource(env, rate=0.0)
    executor = VmExecutor(compute, lambda action, vms: None)
    with pytest.raises(ValueError):
        DecideRateCeiling(ceiling=0)
    with pytest.raises(ValueError):
        PolicyEngine((DecideRateCeiling(ceiling=80.0),), sustain=0)
    with pytest.raises(ValueError):
        ElasticityController(
            source,
            PolicyEngine((DecideRateCeiling(ceiling=80.0),)),
            executor,
            env=env,
            interval=0,
        )
