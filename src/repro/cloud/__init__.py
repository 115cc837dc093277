"""OpenStack-style cloud environment model: VMs, placement, autoscaling."""

from .openstack import AutoScalingGroup, CloudCompute, PlacementError, VmExecutor
from .vm import DEFAULT_BOOT_TIME, VirtualMachine, VmState

__all__ = [
    "AutoScalingGroup",
    "CloudCompute",
    "DEFAULT_BOOT_TIME",
    "PlacementError",
    "VirtualMachine",
    "VmExecutor",
    "VmState",
]
