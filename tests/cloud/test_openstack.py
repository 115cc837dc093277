"""Unit tests for the cloud compute model."""

import pytest

from repro.cloud.openstack import (
    AutoScalingGroup,
    CloudCompute,
    PlacementError,
)
from repro.cloud.vm import VmState
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry


def make_compute(**kwargs):
    env = Environment()
    kwargs.setdefault("boot_time", 10.0)
    kwargs.setdefault("boot_jitter", 0.0)
    compute = CloudCompute(env, rng=RngRegistry(1), **kwargs)
    return env, compute


def test_vm_boots_after_boot_time():
    env, compute = make_compute()
    vm = compute.create_server("vm1")
    assert vm.state is VmState.BUILDING
    env.run(until=9.9)
    assert not vm.is_active
    env.run(until=10.1)
    assert vm.is_active
    assert vm.active_at == pytest.approx(10.0)


def test_boot_jitter_randomises_activation():
    env, compute = make_compute(boot_jitter=5.0)
    vms = [compute.create_server(f"vm{i}") for i in range(10)]
    env.run(until=20.0)
    times = {vm.active_at for vm in vms}
    assert len(times) > 1
    assert all(10.0 <= t <= 15.0 for t in times)


def test_anti_affinity_spreads_over_distinct_hosts():
    env, compute = make_compute(n_compute_nodes=4)
    vms = [
        compute.create_server(f"acc{i}", anti_affinity_group="ring1")
        for i in range(4)
    ]
    hosts = {vm.physical_host for vm in vms}
    assert len(hosts) == 4


def test_anti_affinity_exhaustion_raises():
    env, compute = make_compute(n_compute_nodes=2)
    compute.create_server("a", anti_affinity_group="g")
    compute.create_server("b", anti_affinity_group="g")
    with pytest.raises(PlacementError):
        compute.create_server("c", anti_affinity_group="g")


def test_node_capacity_enforced():
    env, compute = make_compute(n_compute_nodes=1, vms_per_node=2)
    compute.create_server("a")
    compute.create_server("b")
    with pytest.raises(PlacementError):
        compute.create_server("c")


def test_duplicate_name_rejected():
    env, compute = make_compute()
    compute.create_server("a")
    with pytest.raises(ValueError):
        compute.create_server("a")


def test_deleted_vm_never_becomes_active():
    env, compute = make_compute()
    vm = compute.create_server("a")
    compute.delete_server("a")
    env.run(until=20.0)
    assert vm.state is VmState.DELETED


def test_wait_active_event():
    env, compute = make_compute()
    vms = [compute.create_server(f"vm{i}") for i in range(3)]
    fired = []
    compute.wait_active(vms, lambda: fired.append(env.now))
    env.run(until=20.0)
    assert fired == [pytest.approx(10.0)]
    # A VM that is already active calls back at once; one deleted while
    # building never does.
    late = []
    vms[0].when_active(late.append)
    assert late == [vms[0]]
    doomed = compute.create_server("doomed")
    compute.delete_server("doomed")
    compute.wait_active([vms[1], doomed], fired.append, "never")
    env.run(until=40.0)
    assert fired == [pytest.approx(10.0)]


def test_autoscaling_group_scale_up_callback():
    env, compute = make_compute()
    scaled = []
    group = AutoScalingGroup(compute, "ring2", on_scaled=lambda vms: scaled.append(len(vms)))
    group.scale_up(3)
    assert group.size == 3
    env.run(until=20.0)
    assert scaled == [3]


def test_scale_up_requires_positive_count():
    env, compute = make_compute()
    group = AutoScalingGroup(compute, "g")
    with pytest.raises(ValueError):
        group.scale_up(0)
