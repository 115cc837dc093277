"""Kernel/Transport: the execution interfaces the protocol codes against.

The protocol layer (``repro.net``, ``repro.paxos``, ``repro.multicast``,
``repro.kvstore``) is written as *sans-backend* actors: message
handlers, deferred calls and periodic timers (:func:`every`), plus
fire-and-forget message sends.  ``repro.net``, ``repro.paxos`` and
``repro.multicast`` contain no generator process; the kvstore client's
request workers and repartitioning scripts still are, and so run on
the simulator only.  This module pins down the two interfaces those actors are allowed to
assume:

* :class:`Kernel` -- a clock, deferred calls and waitable events.  The
  discrete-event simulator (:class:`repro.sim.core.Environment`) is one
  implementation; the live asyncio backend
  (:class:`repro.runtime.asyncio_kernel.AsyncioKernel`) is another.
  Generator processes (``process`` / ``timeout`` / ``any_of``) are the
  simulator's alone, for the scripts that drive a simulated run.
* :class:`Transport` -- named hosts with inboxes and a datagram-style
  ``send``.  Implemented by the simulated
  :class:`repro.sim.network.Network` and by the real TCP transport
  (:class:`repro.runtime.transport.TcpTransport`).

These are :class:`typing.Protocol` classes: implementations satisfy
them structurally, no inheritance required, so the simulator's
hand-optimised hot paths stay exactly as they are.

Concrete types live here rather than in ``repro.sim`` because both
backends, or kernel-generic code, share them:

* :func:`every` / :class:`Timer` -- the one periodic timer, built on
  ``Kernel.call_later`` alone.
* :class:`Interrupt` -- the exception a simulated process receives from
  ``Process.interrupt``.  Sim-side scripts written against the kernel
  interface (the kvstore client) catch it without importing the
  simulator.
* :class:`Envelope` -- the received-message record actors drain from
  their host inbox.

``repro.sim.core`` / ``repro.sim.network`` re-export the last two, so
existing imports keep working.  So is one constant, :data:`GC_THRESHOLD`:
the collector's generation sizes while either backend's datapath runs.

Contract notes
--------------
* ``Kernel.now`` is seconds -- virtual seconds in the simulator, wall
  seconds since kernel start in live mode.  ``_now`` is the same value
  exposed as a cheap attribute/property for hot paths.
* Determinism (bit-identical seeded runs, golden digests) is a property
  of the *sim* backend only.  The live backend inherits the OS
  scheduler's nondeterminism; protocol safety may not depend on timing.
* ``Transport.send`` is fire-and-forget and may drop (crashed hosts,
  partitions, a saturated live send queue).  Loss is repaired by the
  protocol (retransmission, gap repair), never by the transport.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    NamedTuple,
    Optional,
    Protocol,
    runtime_checkable,
)

__all__ = [
    "Envelope",
    "EventLike",
    "GC_THRESHOLD",
    "HostLike",
    "InboxLike",
    "Interrupt",
    "Kernel",
    "ProcessHandle",
    "Timer",
    "Transport",
    "every",
]

# Generation sizes while a datapath runs: the live node between start
# and stop (``runtime.node.CollectorPolicy``), the simulator inside
# ``Environment.run``.  Every delivered value allocates a few dozen
# short-lived containers and keeps a handful (ring records, delivery
# records, latency samples), none of them in a cycle: at the default
# (700, 10, 10) the young generation is collected some 700 times per
# 45k values and the whole heap -- the model, on the simulator -- every
# few seconds, to free nothing (docs/RUNTIME.md, "Collector policy";
# docs/PERFORMANCE.md has both backends' measurements).
GC_THRESHOLD = (10_000, 20, 20)


class Interrupt(Exception):
    """Raised inside a simulated process when it is interrupted.

    The ``cause`` attribute carries the value passed to
    ``Process.interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Envelope(NamedTuple):
    """A message in flight, as seen by the receiving actor.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    network send, and tuple construction happens in C while the frozen
    dataclass protocol pays a guarded ``object.__setattr__`` per field.
    """

    src: str
    dst: str
    payload: Any
    size: int                  # wire size in bytes, for bandwidth accounting
    sent_at: float
    delivered_at: float
    dst_incarnation: int = 0   # receiver reboot count at send time
    duplicated: bool = False   # injected duplicate copy


@runtime_checkable
class EventLike(Protocol):
    """A one-shot event with attachable callbacks (what a capacity
    model's ``request`` returns, and what a simulated process yields).

    ``callbacks`` is a list until the event is processed, then ``None``
    (the simulator's convention; the live kernel mirrors it).
    """

    callbacks: Optional[list]

    @property
    def triggered(self) -> bool: ...

    def succeed(self, value: Any = None) -> Any: ...

    def fail(self, exception: BaseException) -> Any: ...


@runtime_checkable
class ProcessHandle(Protocol):
    """A running mailbox (or, on the simulator, process): alive until
    it is interrupted or ends."""

    @property
    def is_alive(self) -> bool: ...

    def interrupt(self, cause: Any = None) -> None: ...


@runtime_checkable
class Kernel(Protocol):
    """Clock + scheduling: what every protocol actor needs to run.

    ``tracer`` / ``metrics`` are the observability slots adopted from
    :mod:`repro.obs.trace` at kernel construction; both are ``None``
    unless installed, and probe sites guard with one ``is None`` test.
    """

    tracer: Any
    metrics: Any

    @property
    def now(self) -> float: ...

    # Hot paths read the clock as ``env._now``; both backends expose it.
    @property
    def _now(self) -> float: ...

    def timeout(self, delay: float, value: Any = None) -> Any: ...

    def event(self) -> Any: ...

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None: ...

    def call_at(self, when: float, fn: Callable, *args: Any) -> None: ...


class Timer:
    """A periodic timer armed by :func:`every`.

    Each firing is one ``call_later`` entry.  It calls ``tick()`` and
    arms the next firing ``interval`` later, unless ``tick()`` returned
    ``False`` or cancelled the timer.  :meth:`cancel` cannot take back
    the entry already in the calendar, so that firing still comes, and
    does nothing.
    """

    __slots__ = ("_kernel", "_interval", "_tick", "active")

    def __init__(
        self, kernel: Kernel, interval: float, tick: Callable[[], Any],
        first: float,
    ):
        self._kernel = kernel
        self._interval = interval
        self._tick = tick
        self.active = True       # until cancelled or ``tick()`` is False
        kernel.call_later(first, self._fire)

    def cancel(self) -> None:
        self.active = False

    def _fire(self) -> None:
        if not self.active:
            return               # stale: cancelled after it was armed
        if self._tick() is False:
            self.active = False
        elif self.active:
            self._kernel.call_later(self._interval, self._fire)


def every(
    kernel: Kernel, interval: float, tick: Callable[[], Any],
    first: Optional[float] = None,
) -> Timer:
    """Call ``tick()`` every ``interval`` seconds of ``kernel`` time,
    from ``first`` seconds on (default: one ``interval``), until it
    returns ``False`` or the returned :class:`Timer` is cancelled."""
    return Timer(kernel, interval, tick, interval if first is None else first)


@runtime_checkable
class InboxLike(Protocol):
    """FIFO inbox of :class:`Envelope` s that a host's actor drains.

    ``consume(receive, name)`` starts the actor's *mailbox*: from the
    next scheduling step on, envelopes are handed to ``receive(payload,
    src)`` one at a time, in arrival order, each in a step of its own.
    It returns the mailbox's handle: ``is_alive`` until it is
    interrupted (the actor stopped) or ``receive`` raised.  ``name``
    owns the inbox's ``inbox_depth`` gauge where the inbox is the queue
    (the simulator); the live inbox holds only a backlog and exports no
    depth.  Whether a stopped mailbox swallows the next envelope is the
    backend's own, and unchanged from when the mailbox was a process
    parked in ``get()``: the simulator loses one, the live inbox none.
    """

    def consume(
        self, receive: Callable[[Any, str], None], name: str
    ) -> ProcessHandle: ...

    def put_nowait(self, item: Any) -> None: ...

    def __len__(self) -> int: ...


@runtime_checkable
class HostLike(Protocol):
    """A named node with an inbox, a crash flag and a reboot counter."""

    name: str
    inbox: Any
    crashed: bool
    incarnation: int
    actor: Any

    def crash(self) -> None: ...

    def recover(self) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Named hosts plus datagram-style, fire-and-forget delivery.

    A delivery reaches the receiving actor through its host's inbox and
    the actor's mailbox (:class:`InboxLike`).  A transport that runs on
    the actor's own thread may call ``actor.receive`` itself while the
    mailbox is parked on an empty inbox -- the live TCP transport does,
    in its receive callback; the inbox then holds only what arrived
    while it was not.

    ``defer(fn)`` is for a sender that forms its own batches: ``fn()``
    runs once, no later than the transport next hands queued messages to
    the wire, so what ``fn`` sends leaves with everything else sent
    before that point.  The simulator, which delivers every send on its
    own, calls ``fn`` at once; the live TCP transport, which writes once
    per event-loop turn, runs it at the head of that write -- the caller
    gathers what it submits within one turn and costs no turn of its
    own.  An ``fn`` that raises on the live transport is a kernel
    failure (``AsyncioKernel.fail``); on the simulator it raises into
    the caller.
    """

    def add_host(self, name: str) -> Any: ...

    def host(self, name: str) -> Any: ...

    def hosts(self) -> list[str]: ...

    def send(self, src: str, dst: str, payload: Any, size: int = 128) -> None: ...

    def broadcast(
        self, src: str, dsts: list[str], payload: Any, size: int = 128
    ) -> None: ...

    def defer(self, fn: Callable[[], None]) -> None: ...
