"""Kernel-generic capacity models.

:class:`Server` models a single-threaded CPU (or a disk): work items
queue FIFO and are served one at a time for a deterministic service
time.  This is what makes coordinators and replicas saturate in the
reproduction exactly as the paper's 2-vCPU VMs do -- the figure shapes
(3.62x at four streams in Fig. 3, the CPU drop after the split in
Fig. 4) all emerge from these servers reaching or leaving saturation.

The class is written against the :class:`repro.runtime.kernel.Kernel`
interface (``call_later`` and the ``_now`` clock) so the same model
runs on the simulator and on the live asyncio kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.metrics import UtilisationProbe
from .kernel import Kernel

__all__ = ["Server"]


class Server:
    """A FIFO single-server queue with utilisation accounting.

    ``rate`` is expressed in work-units per second; a request of
    ``cost`` work-units occupies the server for ``cost / rate`` seconds.
    The common idiom is ``cost=1`` with ``rate`` = operations/second.
    """

    def __init__(self, env: Kernel, rate: float, name: str = ""):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = rate
        self.name = name
        self.probe = UtilisationProbe(env, name)
        self._free_at = 0.0
        self.completed = 0

    def request(
        self, cost: float = 1.0, fn: Optional[Callable] = None, *args: Any
    ) -> None:
        """Enqueue ``cost`` units of work; ``fn(*args)`` runs once it is
        done.

        The completion is a calendar entry of its own, drawn when the
        work finishes: it runs after whatever else is already due at
        that instant, in FIFO order with other completions.
        """
        if cost < 0:
            raise ValueError("cost must be non-negative")
        now = self.env._now
        start = max(now, self._free_at)
        service = cost / self.rate
        done_at = start + service
        self._free_at = done_at
        self.probe.busy()
        self.env.call_later(done_at - now, self._finish, fn, args)

    def _finish(self, fn: Optional[Callable], args: tuple) -> None:
        self.completed += 1
        if self.env._now >= self._free_at:
            self.probe.idle()
        if fn is not None:
            self.env.call_later(0.0, fn, *args)

    def utilisation_between(self, start: float, end: float) -> float:
        return self.probe.utilisation_between(start, end)
