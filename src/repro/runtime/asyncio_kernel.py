"""Asyncio implementation of the :class:`repro.runtime.kernel.Kernel`.

The protocol actors are message handlers, deferred calls and periodic
timers (:func:`repro.runtime.kernel.every`); the simulator runs them
from a virtual-time calendar.  This module runs the *same* actors from
a real asyncio event loop: deferred calls and timer firings go through
``loop.call_later``, each actor's inbox is drained by a
:class:`LiveMailbox`, and the clock is wall seconds since kernel
construction.  The kernel-generic capacity models
(``runtime.resources.Server``, ``storage.StableStore``) take completion
callbacks and run here unchanged.  What does *not* carry over is
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

__all__ = ["AsyncioKernel", "LiveMailbox", "LiveStore"]

_PENDING = object()


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
        """Stop taking envelopes (``MailboxHandle.interrupt``)."""
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
        # Handler failures land here; the supervisor treats a non-empty
        # list as a failed run.
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

    # -- failures -----------------------------------------------------

    def fail(self, exc: BaseException) -> None:
        """Record a failure nobody is left on the stack to receive."""
        self.failures.append(exc)
        if self.on_failure is not None:
            self.on_failure(exc)

    # -- kernel interface ---------------------------------------------

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._loop.call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        now = self._now
        if when < now:
            raise ValueError(f"when ({when}) lies in the past (now={now})")
        self._loop.call_later(when - now, fn, *args)
