"""OpenStack-style compute API: placement, anti-affinity, autoscaling.

Models the slice of OpenStack the paper relies on:

* ``create_server`` with **anti-affinity server groups** -- "Paxos
  acceptors and replicas are scheduled to different physical machines
  using the OpenStack anti-affinity host groups" (§VII-A);
* **Heat autoscaling groups** -- the vertical-scalability experiment
  deploys each stream's acceptors as a Heat-AutoScaling group that
  "allows clients to boot up or shutdown the virtual machines that
  participate in the streams" (§VII-C);
* the **VM-booting executor** that lets the one
  :class:`~repro.elasticity.controller.ElasticityController` add
  streams "from newly created virtual machines" (§VI):
  :class:`VmExecutor`.

The compute pool defaults to the paper's cluster: 16 compute nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.core import Environment
from ..sim.rng import RngRegistry
from .vm import DEFAULT_BOOT_TIME, VirtualMachine, VmState

__all__ = ["AutoScalingGroup", "CloudCompute", "PlacementError", "VmExecutor"]


class PlacementError(Exception):
    """No physical host satisfies the placement constraints."""


class CloudCompute:
    """The compute service: boots VMs onto physical hosts."""

    def __init__(
        self,
        env: Environment,
        n_compute_nodes: int = 16,
        vms_per_node: int = 40,
        boot_time: float = DEFAULT_BOOT_TIME,
        boot_jitter: float = 10.0,
        rng: Optional[RngRegistry] = None,
    ):
        if n_compute_nodes < 1:
            raise ValueError("need at least one compute node")
        self.env = env
        self.boot_time = boot_time
        self.boot_jitter = boot_jitter
        self._rng = (rng or RngRegistry(0)).stream("cloud")
        self.nodes = [f"compute-{i:02d}" for i in range(n_compute_nodes)]
        self.vms_per_node = vms_per_node
        self.servers: dict[str, VirtualMachine] = {}
        self._groups: dict[str, list[str]] = {}   # anti-affinity groups

    # -- placement ----------------------------------------------------------

    def _occupancy(self, node: str) -> int:
        return sum(
            1
            for vm in self.servers.values()
            if vm.physical_host == node and vm.state is not VmState.DELETED
        )

    def _place(self, anti_affinity_group: Optional[str]) -> str:
        excluded: set[str] = set()
        if anti_affinity_group is not None:
            members = self._groups.setdefault(anti_affinity_group, [])
            excluded = {
                self.servers[name].physical_host
                for name in members
                if self.servers[name].state is not VmState.DELETED
            }
        candidates = [
            node
            for node in self.nodes
            if node not in excluded and self._occupancy(node) < self.vms_per_node
        ]
        if not candidates:
            raise PlacementError(
                f"no host satisfies anti-affinity group "
                f"{anti_affinity_group!r} (excluded: {sorted(excluded)})"
            )
        # Least-loaded placement, ties broken by node order: deterministic.
        return min(candidates, key=lambda node: (self._occupancy(node), node))

    # -- API -------------------------------------------------------------------

    def create_server(
        self,
        name: str,
        anti_affinity_group: Optional[str] = None,
    ) -> VirtualMachine:
        """Request a VM; it becomes ACTIVE after the boot time."""
        if name in self.servers and self.servers[name].state is not VmState.DELETED:
            raise ValueError(f"server {name!r} already exists")
        host = self._place(anti_affinity_group)
        boot = self.boot_time
        if self.boot_jitter > 0:
            boot += self._rng.uniform(0.0, self.boot_jitter)
        vm = VirtualMachine(self.env, name, host, boot)
        self.servers[name] = vm
        if anti_affinity_group is not None:
            self._groups[anti_affinity_group].append(name)
        return vm

    def delete_server(self, name: str) -> None:
        try:
            self.servers[name].delete()
        except KeyError:
            raise KeyError(f"unknown server {name!r}") from None

    def server(self, name: str) -> VirtualMachine:
        return self.servers[name]

    def wait_active(
        self, vms: list[VirtualMachine], fn: Callable, *args: Any
    ) -> None:
        """Call ``fn(*args)`` once every VM in ``vms`` is ACTIVE, in a
        scheduling step after the last one announced it."""
        waiting = len(vms)

        def one_active(_vm: VirtualMachine) -> None:
            nonlocal waiting
            waiting -= 1
            if waiting == 0:
                self.env.call_later(0.0, fn, *args)

        if not vms:
            self.env.call_later(0.0, fn, *args)
        for vm in vms:
            vm.when_active(one_active)


class AutoScalingGroup:
    """A Heat-style autoscaling group of identical VMs, anti-affine:
    the group's name is their anti-affinity group."""

    def __init__(
        self,
        compute: CloudCompute,
        name: str,
        on_scaled: Optional[Callable[[list[VirtualMachine]], None]] = None,
    ):
        self.compute = compute
        self.name = name
        self.on_scaled = on_scaled
        self.instances: list[VirtualMachine] = []
        self._counter = 0

    @property
    def size(self) -> int:
        return sum(1 for vm in self.instances if vm.state is not VmState.DELETED)

    def scale_up(self, count: int) -> list[VirtualMachine]:
        """Boot ``count`` new instances; ``on_scaled`` fires when all are
        ACTIVE."""
        if count < 1:
            raise ValueError("count must be >= 1")
        new_vms = []
        for _ in range(count):
            self._counter += 1
            vm = self.compute.create_server(
                f"{self.name}-{self._counter:03d}",
                anti_affinity_group=self.name,
            )
            new_vms.append(vm)
            self.instances.append(vm)
        if self.on_scaled is not None:
            self.compute.wait_active(new_vms, self.on_scaled, new_vms)
        return new_vms


class VmExecutor:
    """Executor of
    :class:`~repro.elasticity.controller.ElasticityController` that
    boots a new stream's acceptors before the stream exists (§VI).

    ``execute`` boots three anti-affine VMs through an
    :class:`AutoScalingGroup`; once all are ACTIVE, ``provision(action,
    vms)`` deploys ``action.stream`` and subscribes the group to it.
    New streams are named ``S<n>`` after the ``n - 1`` provisioned;
    :meth:`next_stream_name` is ``None`` while a boot is in flight.  A
    boot that lost a VM while BUILDING never completes: :meth:`poll`
    deletes the rest of it, and the next breach boots afresh.
    """

    ACCEPTORS_PER_STREAM = 3    # every paper experiment

    def __init__(
        self,
        compute: CloudCompute,
        provision: Callable[[object, list[VirtualMachine]], None],
    ):
        self.compute = compute
        self.provision = provision
        self.booting: Optional[list[VirtualMachine]] = None
        self._groups: dict[str, AutoScalingGroup] = {}
        self._provisioned: tuple[str, ...] = ()

    def next_stream_name(self) -> Optional[str]:
        if self.booting is not None:
            return None
        return f"S{len(self._provisioned) + 1}"

    def execute(self, action) -> None:
        """Start the boot; the subscription (and its request id) comes
        with ``provision``."""
        group = self._groups.get(action.stream)
        if group is None:
            group = self._groups[action.stream] = AutoScalingGroup(
                self.compute, f"stream-{len(self._provisioned)}-acceptors"
            )
        group.on_scaled = lambda vms: self._active(action, vms)
        self.booting = group.scale_up(self.ACCEPTORS_PER_STREAM)

    def _active(self, action, vms: list[VirtualMachine]) -> None:
        self.booting = None
        self.provision(action, vms)

    def poll(self, snapshot) -> None:
        self._provisioned = snapshot.provisioned
        booting = self.booting
        if booting and any(vm.state is VmState.DELETED for vm in booting):
            for vm in booting:
                vm.delete()
            self.booting = None
