"""Stable-storage write model.

Acceptors must persist promises and accepted values before answering.
The paper's VMs had no real local disks, so its experiments ran
in-memory ("all experiments were run in memory only"); we default to
zero-latency writes but keep the component explicit and configurable so
that disk-bound acceptors (the motivation for vertical scaling in
§IV-A1) can be modelled -- a stream whose acceptors write slowly caps
that stream's throughput.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..runtime.kernel import Kernel
from ..runtime.resources import Server

__all__ = ["StableStore"]


class StableStore:
    """Models the latency/bandwidth of an acceptor's persistent device.

    Parameters
    ----------
    env:
        Execution kernel (simulator or live).
    write_latency:
        Fixed seconds per synchronous write (fsync cost); 0 = memory.
    write_bandwidth:
        Bytes/second the device sustains; ``None`` = infinite.
    """

    def __init__(
        self,
        env: Kernel,
        write_latency: float = 0.0,
        write_bandwidth: Optional[float] = None,
        name: str = "",
    ):
        if write_latency < 0:
            raise ValueError("write_latency must be >= 0")
        self.env = env
        self.write_latency = write_latency
        self.name = name
        self._device = (
            Server(env, rate=write_bandwidth, name=f"{name}:disk")
            if write_bandwidth is not None
            else None
        )
        self.writes = 0
        self.bytes_written = 0
        # Fixed at construction: True when writes complete at the
        # current instant (plain attribute -- the acceptor checks it
        # per persisted message).
        self.is_instantaneous = write_latency == 0 and self._device is None

    def write(self, nbytes: int, fn: Callable, *args: Any) -> None:
        """Persist ``nbytes``; ``fn(*args)`` runs once it is durable.

        With a device, the write queues behind earlier ones and then
        pays the fixed latency; the callback is a calendar entry of its
        own, drawn when the latency has passed.  Without one it runs
        ``write_latency`` from now (in a step of its own even at 0).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.writes += 1
        self.bytes_written += nbytes
        if self._device is not None:
            self._device.request(nbytes, self._queued, fn, args)
        else:
            self.env.call_later(self.write_latency, fn, *args)

    def _queued(self, fn: Callable, args: tuple) -> None:
        # Off the device: the fixed latency, then the callback in a
        # calendar step of its own.
        self.env.call_later(self.write_latency, self.env.call_later, 0.0, fn, *args)

    def write_nowait(self, nbytes: int) -> None:
        """Account an instantaneous write without allocating an event.

        Only valid when :attr:`is_instantaneous` is true; :meth:`write`
        schedules its callback even for zero-latency writes, which costs
        a calendar entry per persisted message for nothing.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.writes += 1
        self.bytes_written += nbytes
