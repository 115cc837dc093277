"""Execution backends for the Elastic Paxos protocol actors.

``repro.runtime`` owns the :class:`~repro.runtime.kernel.Kernel` /
:class:`~repro.runtime.kernel.Transport` interfaces the protocol layer
codes against, and the *live* implementation that runs the unchanged
actors over real asyncio TCP sockets on localhost:

* :mod:`repro.runtime.kernel` -- the interfaces (plus the shared
  :class:`Envelope` type and the :func:`~repro.runtime.kernel.every`
  timer);
* :mod:`repro.runtime.resources` -- kernel-generic capacity models
  (:class:`Server`);
* :mod:`repro.runtime.codec` -- versioned binary wire codec for every
  registered message class;
* :mod:`repro.runtime.asyncio_kernel` -- :class:`AsyncioKernel`, the
  event-loop implementation of the kernel interface;
* :mod:`repro.runtime.transport` -- :class:`TcpTransport`,
  length-prefixed TCP with per-peer reconnect and backpressure;
* :mod:`repro.runtime.node` -- :class:`LiveNode`, the one assembly of
  a live node, and :class:`NodeOps`, its op table, shared by ``repro
  live`` and ``repro worker``;
* :mod:`repro.runtime.driver` -- :class:`RunDriver`, which wires,
  drives, drains and judges a cluster through those op tables, however
  the nodes are reached;
* :mod:`repro.runtime.supervisor` -- :class:`LiveCluster` (N nodes on
  one loop) and :func:`run_live`, the ``python -m repro live`` entry;
* :mod:`repro.runtime.telemetry` -- per-node tracer/metrics/HTTP
  endpoint assembly (:class:`NodeTelemetry`) for the live telemetry
  plane;
* :mod:`repro.runtime.console` -- the ``python -m repro top``
  dashboard over those endpoints;
* :mod:`repro.runtime.profiling` -- the always-on stack sampler and
  event-loop-lag probe (``repro live --profile-dir``, ``/profile``).

Only the interface module is imported eagerly: the simulator kernel
imports :mod:`repro.runtime.kernel` for the shared types, so this
package ``__init__`` must never (transitively) import ``repro.sim``.
The live backend is loaded lazily via ``__getattr__``.
"""

from __future__ import annotations

from .kernel import Envelope, Kernel, Transport

__all__ = [
    "AsyncioKernel",
    "Envelope",
    "NodeTelemetry",
    "TelemetryServer",
    "decode",
    "decode_with_context",
    "encode",
    "Kernel",
    "LiveCluster",
    "LiveConfig",
    "LiveNode",
    "LiveReport",
    "LoopLagProbe",
    "StackSampler",
    "TcpTransport",
    "Transport",
    "prometheus_text",
    "run_live",
    "run_top",
]

_LAZY = {
    "encode": ("repro.runtime.codec", "encode"),
    "decode": ("repro.runtime.codec", "decode"),
    "decode_with_context": ("repro.runtime.codec", "decode_with_context"),
    "AsyncioKernel": ("repro.runtime.asyncio_kernel", "AsyncioKernel"),
    "TcpTransport": ("repro.runtime.transport", "TcpTransport"),
    "LiveCluster": ("repro.runtime.supervisor", "LiveCluster"),
    "LiveConfig": ("repro.runtime.supervisor", "LiveConfig"),
    "LiveNode": ("repro.runtime.node", "LiveNode"),
    "LiveReport": ("repro.runtime.supervisor", "LiveReport"),
    "run_live": ("repro.runtime.supervisor", "run_live"),
    "NodeTelemetry": ("repro.runtime.telemetry", "NodeTelemetry"),
    "TelemetryServer": ("repro.runtime.telemetry", "TelemetryServer"),
    "prometheus_text": ("repro.runtime.telemetry", "prometheus_text"),
    "run_top": ("repro.runtime.console", "run_top"),
    "StackSampler": ("repro.runtime.profiling", "StackSampler"),
    "LoopLagProbe": ("repro.runtime.profiling", "LoopLagProbe"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
