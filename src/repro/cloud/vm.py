"""Virtual machine lifecycle.

The paper deploys every role (acceptors, replicas, clients) on
OpenStack VMs (2 vCPU / 2 GB) and reports that "adding a new stream
from newly created virtual machines (three acceptors) takes
approximately 60 seconds" -- dominated by VM boot.  This module models
that lifecycle: a VM is requested, boots for a configurable time, runs,
and can be deleted.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..sim.core import Environment

__all__ = ["VmState", "VirtualMachine", "DEFAULT_BOOT_TIME"]

# §VI: ~60 s to add a stream of three freshly booted acceptor VMs.
DEFAULT_BOOT_TIME = 55.0


class VmState(enum.Enum):
    BUILDING = "building"
    ACTIVE = "active"
    DELETED = "deleted"


class VirtualMachine:
    """One VM instance; :meth:`when_active` callbacks run when boot
    completes."""

    def __init__(
        self,
        env: Environment,
        name: str,
        physical_host: str,
        boot_time: float,
    ):
        self.env = env
        self.name = name
        self.physical_host = physical_host
        self.state = VmState.BUILDING
        self.requested_at = env.now
        self.active_at: Optional[float] = None
        # Callbacks waiting for ACTIVE; ``None`` once they have run.
        self._on_active: Optional[list[Callable[[VirtualMachine], None]]] = []
        env.call_later(boot_time, self._become_active)

    def when_active(self, fn: Callable[["VirtualMachine"], None]) -> None:
        """Call ``fn(vm)`` once the VM is ACTIVE, in a scheduling step
        after the one that activated it (at once if that has passed).
        A VM deleted while BUILDING never calls it."""
        if self._on_active is None:
            fn(self)
        else:
            self._on_active.append(fn)

    def _become_active(self) -> None:
        if self.state is VmState.DELETED:
            return  # deleted while still building
        self.state = VmState.ACTIVE
        self.active_at = self.env.now
        self.env.call_later(0.0, self._announce)

    def _announce(self) -> None:
        callbacks, self._on_active = self._on_active, None
        for fn in callbacks:
            fn(self)

    def delete(self) -> None:
        self.state = VmState.DELETED

    @property
    def is_active(self) -> bool:
        return self.state is VmState.ACTIVE

    def __repr__(self) -> str:
        return f"<VM {self.name} {self.state.value} on {self.physical_host}>"
