"""Asyncio implementation of the :class:`repro.runtime.kernel.Kernel`.

The protocol actors are message handlers, deferred calls and periodic
timers (:func:`repro.runtime.kernel.every`); the simulator runs them
from a virtual-time calendar.  This module runs the *same* actors from
a real asyncio event loop: deferred calls and timer firings go through
``loop.call_later``, each actor's inbox is drained by a
:class:`LiveMailbox`, and the clock is wall seconds since kernel
construction.  There are no generator processes here: those are the
simulator's, for the scripts that drive a simulated run.

:class:`LiveEvent` / :class:`LiveTimeout` remain for the kernel-generic
capacity models, whose ``request`` / ``write`` return an event that
callbacks are attached to (``runtime.resources.Server``,
``storage.StableStore``).  Their semantics mirror ``repro.sim.core``'s
(the callback list becomes ``None`` once processed; a failure nobody
defused is a kernel failure).  What does *not* carry over is
determinism: the OS scheduler orders ready callbacks, so two live runs
are never bit-identical -- golden digests apply to the sim backend
only.

Failures cannot usefully propagate out of a running event loop, so the
kernel collects them in :attr:`AsyncioKernel.failures` and fires
:attr:`AsyncioKernel.on_failure`; the supervisor checks both.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Optional

from ..obs.trace import current_metrics, current_tracer

__all__ = [
    "AsyncioKernel",
    "LiveEvent",
    "LiveMailbox",
    "LiveStore",
    "LiveTimeout",
]

_PENDING = object()


class LiveEvent:
    """Event with sim-compatible callback semantics on the asyncio loop."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "AsyncioKernel"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "LiveEvent":
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._loop.call_soon(self.env._process_event, self)
        return self

    def fail(self, exception: BaseException) -> "LiveEvent":
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._loop.call_soon(self.env._process_event, self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class LiveTimeout(LiveEvent):
    """Born-triggered event processed after a wall-clock delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "AsyncioKernel", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._loop.call_later(delay, env._process_event, self)


class LiveStore:
    """An actor's inbox on the live kernel: an unbounded FIFO of
    envelopes, drained by one :class:`LiveMailbox`."""

    __slots__ = ("env", "_items", "_parked")

    def __init__(self, env: "AsyncioKernel"):
        self.env = env
        self._items: deque = deque()
        self._parked: deque = deque()     # mailboxes waiting for an item

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    @property
    def waiting(self) -> bool:
        """True while a mailbox is parked: the store is empty and
        whatever it held has been handled.  A mailbox stopped while
        parked is discarded here instead of swallowing the next item."""
        parked = self._parked
        while parked:
            if parked[0].is_alive:
                return True
            parked.popleft()
        return False

    def consume(
        self, receive: Callable[[Any, str], None], name: str
    ) -> "LiveMailbox":
        """Drain this inbox of envelopes into ``receive(payload, src)``
        (the :class:`~repro.runtime.kernel.InboxLike` contract).  The
        live inbox holds only a backlog (``TcpTransport`` hands a parked
        mailbox's actor its frames itself), so ``name`` gets no
        ``inbox_depth`` gauge."""
        return LiveMailbox(self, receive)

    def put_nowait(self, item: Any) -> None:
        if self.waiting:
            mailbox = self._parked.popleft()
            self.env._loop.call_soon(mailbox._handle, item)
        else:
            self._items.append(item)


class LiveMailbox:
    """An actor's receive loop over a :class:`LiveStore`, kept as state
    (:class:`repro.sim.queues.Mailbox` on the simulator): one loop turn
    after it is created it takes the next envelope, one per turn while a
    backlog lasts, then parks in the store.  Stopped (:meth:`interrupt`),
    it loses the envelope whose handling is already scheduled, else one
    taken from a backlog, but not the next arrival: :attr:`LiveStore.waiting` discards it first.
    A handler that raises ends it and is a kernel failure
    (``AsyncioKernel.fail``)."""

    __slots__ = ("store", "receive", "is_alive")

    def __init__(self, store: LiveStore, receive: Callable[[Any, str], None]):
        self.store = store
        self.receive = receive
        self.is_alive = True
        store.env._loop.call_soon(self._take)

    def interrupt(self, cause: Any = None) -> None:
        """Stop taking envelopes (``ProcessHandle.interrupt``)."""
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a stopped mailbox")
        self.is_alive = False

    def _take(self) -> None:
        store = self.store
        items = store._items
        if items:
            item = items.popleft()
            if self.is_alive:
                store.env._loop.call_soon(self._handle, item)
        elif self.is_alive:
            store._parked.append(self)

    def _handle(self, envelope: Any) -> None:
        if not self.is_alive:
            return      # stopped while this handling was scheduled: lost
        try:
            self.receive(envelope.payload, envelope.src)
        except Exception as failure:
            self.is_alive = False
            self.store.env.fail(failure)
            return
        self._take()


class AsyncioKernel:
    """Kernel implementation over a real asyncio event loop.

    Construct inside a running loop (or pass one explicitly).  The
    clock starts at 0 at construction so protocol timing constants
    (``delta_t``, retransmit timeouts) mean the same thing as in the
    simulator: seconds.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        tracer: Any = _PENDING,
        metrics: Any = _PENDING,
        clock_offset: float = 0.0,
    ):
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        # ``clock_offset`` shifts this kernel's clock ahead of the loop
        # epoch: each node of a multi-node live deployment owns its own
        # kernel, and distinct offsets model the distinct wall-clock
        # domains real machines have (the trace-merge tool re-aligns
        # them; a nonzero offset also exercises that path in tests).
        self._t0 = self._loop.time() - clock_offset
        # Undefused event failures and handler failures land here; the
        # supervisor treats a non-empty list as a failed run.
        self.failures: list[BaseException] = []
        self.on_failure: Optional[Callable[[BaseException], None]] = None
        # Observability: same adoption protocol as the sim Environment
        # by default; a multi-node supervisor passes per-node overrides
        # (each node streams to its own trace file and registry).
        self.tracer = current_tracer() if tracer is _PENDING else tracer
        self.metrics = current_metrics() if metrics is _PENDING else metrics
        if self.metrics is not None:
            self.metrics.bind(self)

    # -- clock --------------------------------------------------------

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    @property
    def _now(self) -> float:
        return self._loop.time() - self._t0

    # -- event processing ---------------------------------------------

    def _process_event(self, event: LiveEvent) -> None:
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            self.fail(event._value)

    def fail(self, exc: BaseException) -> None:
        """Record a failure nobody is left on the stack to receive."""
        self.failures.append(exc)
        if self.on_failure is not None:
            self.on_failure(exc)

    # -- kernel interface ---------------------------------------------

    def event(self) -> LiveEvent:
        return LiveEvent(self)

    def timeout(self, delay: float, value: Any = None) -> LiveTimeout:
        return LiveTimeout(self, delay, value)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._loop.call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        now = self._now
        if when < now:
            raise ValueError(f"when ({when}) lies in the past (now={now})")
        self._loop.call_later(when - now, fn, *args)
