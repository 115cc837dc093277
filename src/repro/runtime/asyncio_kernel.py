"""Asyncio implementation of the :class:`repro.runtime.kernel.Kernel`.

The protocol actors are generator processes that yield events; the
simulator drives them from a virtual-time calendar.  This module drives
the *same* generators from a real asyncio event loop: events are
processed via ``loop.call_soon``, timeouts via ``loop.call_later``, and
the clock is wall seconds since kernel construction.

The event/process semantics deliberately mirror ``repro.sim.core``
(callback list becomes ``None`` once processed, failures must be
defused by a waiter, interrupts detach from wait targets) so protocol
code cannot tell which backend it is running on.  What does *not* carry
over is determinism: the OS scheduler orders ready callbacks, so two
live runs are never bit-identical -- golden digests apply to the sim
backend only.

Unconsumed process failures cannot usefully propagate out of a running
event loop, so the kernel collects them in :attr:`AsyncioKernel.failures`
and fires :attr:`AsyncioKernel.on_failure`; the supervisor checks both.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.trace import current_metrics, current_tracer
from .kernel import Interrupt

__all__ = [
    "AsyncioKernel",
    "LiveEvent",
    "LiveMailbox",
    "LiveProcess",
    "LiveStore",
    "QueueFull",
]

_PENDING = object()


class QueueFull(Exception):
    """Raised on a non-blocking put into a full bounded store."""


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


class LiveProcess(LiveEvent):
    """A generator process driven by the asyncio loop.

    The advance/interrupt/stale-wakeup logic is a line-for-line mirror
    of :class:`repro.sim.core.Process`.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "AsyncioKernel", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[LiveEvent] = None
        env._loop.call_soon(self._advance_checked, True, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("cannot interrupt a terminated process")
        self._detach_from_target()
        self.env._loop.call_soon(self._deliver_interrupt, Interrupt(cause))

    def _detach_from_target(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        self._detach_from_target()
        self._advance(False, exc, None)

    def _resume(self, event: LiveEvent) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        self._target = None
        if event._ok:
            self._advance(True, event._value, None)
        else:
            self._advance(False, event._value, event)

    def _advance_checked(self, ok: bool, value: Any) -> None:
        if self.triggered:
            return
        self._target = None
        self._advance(ok, value, None)

    def _advance(
        self, ok: bool, value: Any, failed_event: Optional[LiveEvent]
    ) -> None:
        try:
            if ok:
                next_event = self._generator.send(value)
            else:
                if failed_event is not None:
                    failed_event._defused = True
                next_event = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, LiveEvent):
            self._generator.close()
            self.fail(RuntimeError(f"process yielded a non-event: {next_event!r}"))
            return
        if next_event.callbacks is None:
            self.env._loop.call_soon(
                self._advance_checked, next_event._ok, next_event._value
            )
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume)


class _LiveCondition(LiveEvent):
    __slots__ = ("_events", "_done")

    def __init__(self, env: "AsyncioKernel", events: Iterable[LiveEvent]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: LiveEvent) -> None:
        raise NotImplementedError


class LiveAnyOf(_LiveCondition):
    __slots__ = ()

    def _check(self, event: LiveEvent) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class LiveAllOf(_LiveCondition):
    __slots__ = ()

    def _check(self, event: LiveEvent) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class LiveStore:
    """FIFO store with the same API as :class:`repro.sim.queues.Store`."""

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: "AsyncioKernel", capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: deque = deque()
        # Events of parked get() calls and parked mailboxes, in order.
        self._getters: deque = deque()
        self._putters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    @property
    def waiting(self) -> bool:
        """True while a consumer is parked (a mailbox, or a process in
        ``get()``): the store is empty and whatever it held has been
        handled.  A consumer that stopped waiting (a mailbox stopped, a
        process interrupted away) is discarded here instead of
        swallowing the next item."""
        getters = self._getters
        while getters:
            head = getters[0]
            if (head.is_alive if head.__class__ is LiveMailbox
                    else head.callbacks):
                return True
            getters.popleft()
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

    def put(self, item: Any) -> LiveEvent:
        event = LiveEvent(self.env)
        if self.waiting:
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        if self.waiting:
            self._getters.popleft().succeed(item)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise QueueFull(f"store at capacity {self.capacity}")
        self._items.append(item)

    def get(self) -> LiveEvent:
        event = LiveEvent(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()


class LiveMailbox:
    """An actor's receive loop over a :class:`LiveStore`, kept as state
    instead of a process (:class:`repro.sim.queues.Mailbox` on the
    simulator): one loop turn after it is created it takes the next
    envelope, one per turn while a backlog lasts, then parks among the
    getters.  Stopped (:meth:`interrupt`), it loses what the interrupted
    loop process lost -- the envelope whose handling is already
    scheduled, else one taken from a backlog -- but not the next
    arrival: :attr:`LiveStore.waiting` discards it first.  A handler
    that raises ends it and is a kernel failure (``AsyncioKernel.fail``),
    as the loop process failing was."""

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

    def succeed(self, item: Any) -> None:
        """A put handed ``item`` to this parked mailbox."""
        self.store.env._loop.call_soon(self._handle, item)

    def _take(self) -> None:
        store = self.store
        items = store._items
        if items:
            item = items.popleft()
            if store._putters:
                store._admit_putter()
            if self.is_alive:
                store.env._loop.call_soon(self._handle, item)
        elif self.is_alive:
            store._getters.append(self)

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
        # Undefused process/event failures land here; the supervisor
        # treats a non-empty list as a failed run.
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

    def process(self, generator: Generator) -> LiveProcess:
        tracer = self.tracer
        if tracer is not None and tracer.wants_sim:
            tracer.emit(
                "live.process",
                self._now,
                name=getattr(generator, "__name__", repr(generator)),
            )
        return LiveProcess(self, generator)

    def any_of(self, events: Iterable[LiveEvent]) -> LiveAnyOf:
        return LiveAnyOf(self, events)

    def all_of(self, events: Iterable[LiveEvent]) -> LiveAllOf:
        return LiveAllOf(self, events)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._loop.call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        now = self._now
        if when < now:
            raise ValueError(f"when ({when}) lies in the past (now={now})")
        self._loop.call_later(when - now, fn, *args)

    def store(self, capacity: Optional[int] = None) -> LiveStore:
        return LiveStore(self, capacity)
