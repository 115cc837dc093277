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

This ``__init__`` imports nothing.  The simulator kernel imports
:mod:`repro.runtime.kernel` for the shared types, and a live node
imports the modules above one by one, so neither loads the other's
backend.
"""
