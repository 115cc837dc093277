"""Blocking FIFO queues for simulated processes.

:class:`Store` is the basic producer/consumer channel: ``put`` is
immediate (unbounded by default, or bounded with back-pressure), ``get``
returns an event that a consumer process yields on.  Items are delivered
in FIFO order to getters in FIFO order, which keeps runs deterministic.

A host's inbox is a :class:`Store` drained by its actor's
:class:`Mailbox` (``store.consume(receive, name)``): the receive loop
without the process.  It takes its place among the getters and behaves
exactly as a process looping on ``yield store.get()`` did -- same
calendar slots, same items lost to a stopped loop -- but a delivery to
it is one pooled call that runs the handler, not an event, a getter and
a generator resume.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .core import Environment, Event, SimulationError, _ScheduledCall

__all__ = ["Mailbox", "Store", "QueueFull"]


class QueueFull(SimulationError):
    """Raised on a non-blocking put into a full bounded store."""


class Store:
    """Deterministic FIFO store.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.
    """

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        # Events of parked get() calls and parked mailboxes, in order.
        self._getters: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (for inspection in tests)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; returns an event that fires once stored."""
        event = Event(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` immediately or raise :class:`QueueFull`."""
        getters = self._getters
        if getters:
            getter = getters.popleft()
            if getter.__class__ is Mailbox:
                # Inlined ``getter.succeed(item)``: this is the
                # per-message delivery path and the extra frame is
                # measurable.
                if getter.is_alive:
                    env = self.env
                    pool = env._call_pool
                    if pool:
                        call = pool.pop()
                        call.fn = getter.handle
                        call.args = (item,)
                    else:
                        call = _ScheduledCall(getter.handle, (item,))
                    env._fifo.append((env._now, next(env._counter), call))
            else:
                getter.succeed(item)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise QueueFull(f"store at capacity {self.capacity}")
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        env = self.env
        event = Event(env)
        items = self._items
        if items:
            # Inlined ``event.succeed(...)`` -- the event is fresh, so
            # the double-trigger guard cannot fire.
            event._ok = True
            event._value = items.popleft()
            env._fifo.append((env._now, next(env._counter), event))
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def consume(
        self, receive: Callable[[Any, str], None], name: str
    ) -> "Mailbox":
        """Drain this inbox of envelopes into ``receive(payload, src)``
        (the :class:`~repro.runtime.kernel.InboxLike` contract); ``name``
        owns the ``inbox_depth`` gauge."""
        return Mailbox(self, receive, name)

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()


class Mailbox:
    """An actor's receive loop over a :class:`Store` of envelopes, kept
    as state instead of a process.

    It makes the calendar entries and loses the items that a process
    running ``while True: envelope = yield store.get(); receive(...)``
    made and lost:

    * it starts one scheduling step after it is created, as a process
      does, and then takes the next item like ``get()``: one queued item
      is handled in a step of its own; on an empty store it parks among
      the getters, and a put hands it the item in one step at ``now`` --
      the slot the getter's wakeup took (:meth:`Store.put_nowait`);
    * the ``inbox_depth`` gauge is recorded per item taken, before the
      handler, when the environment has a metrics registry;
    * :meth:`interrupt` (the actor stopped) loses exactly what the
      interrupted loop lost: the item whose handling is already
      scheduled, else the next ``get()``'s -- an item taken at once, or
      the next put if it parks (a stopped loop's getter stays queued,
      and swallows it);
    * a handler that raises ends it, as it ended the loop's process, and
      the exception leaves :meth:`Environment.run`.
    """

    __slots__ = ("store", "receive", "name", "metrics", "is_alive", "handle")

    def __init__(self, store: Store, receive: Callable[[Any, str], None],
                 name: str):
        self.store = store
        self.receive = receive
        self.name = name
        # env.metrics is fixed for the environment's lifetime.
        self.metrics = store.env.metrics
        self.is_alive = True
        # Bound once: the store schedules it per delivery.
        self.handle = self._handle
        store.env._schedule_call(self._take, ())

    def interrupt(self, cause: Any = None) -> None:
        """Stop taking items (``ProcessHandle.interrupt``)."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a stopped mailbox")
        self.is_alive = False

    def succeed(self, item: Any) -> None:
        """A put handed ``item`` to this parked mailbox."""
        if self.is_alive:
            self.store.env._schedule_call(self.handle, (item,))

    def _take(self) -> None:
        store = self.store
        items = store._items
        if items:
            item = items.popleft()
            if store._putters:
                store._admit_putter()
            if self.is_alive:
                store.env._schedule_call(self.handle, (item,))
        else:
            store._getters.append(self)

    def _handle(self, envelope: Any) -> None:
        if not self.is_alive:
            return      # stopped while this handling was scheduled: lost
        metrics = self.metrics
        if metrics is not None:
            metrics.gauge(self.name, "inbox_depth").record(len(self.store))
        try:
            self.receive(envelope.payload, envelope.src)
        except BaseException:
            self.is_alive = False
            raise
        store = self.store
        if store._items:
            self._take()
        else:
            store._getters.append(self)     # inlined _take(): park
