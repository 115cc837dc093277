"""An actor's inbox on the simulator, and the mailbox that drains it.

:class:`Store` is a FIFO of envelopes, filled by ``put_next`` (the
network's delivery) or ``put_nowait``, and drained by its actor's
:class:`Mailbox` (``store.consume(receive, name)``).  A parked mailbox
waits among the store's getters; a put hands it the item in one pooled
call that runs the handler -- or, for the network's delivery when
nothing else is due at that instant, in no call of its own: the
delivery's entry runs the handler (:meth:`Store.put_next`).  Getters
are served in FIFO order, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .core import Environment, SimulationError, _ScheduledCall

__all__ = ["Mailbox", "Store", "QueueFull"]


class QueueFull(SimulationError):
    """Raised on a put into a full bounded store."""


class Store:
    """Deterministic FIFO store.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.
    """

    __slots__ = ("env", "capacity", "_items", "_getters")

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        # Parked mailboxes, in order.
        self._getters: deque[Mailbox] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (for inspection in tests)."""
        return tuple(self._items)

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` immediately or raise :class:`QueueFull`; a
        parked mailbox handles it in a same-instant entry of its own."""
        handle = self.put_next(item)
        if handle is not None:
            self.env._schedule_call(handle, (item,))

    def put_next(self, item: Any) -> Optional[Callable[[Any], None]]:
        """:meth:`put_nowait`, less one calendar entry where it can: when
        ``item`` goes to a parked mailbox and nothing else is due at this
        instant, its handling would be the calendar's next entry anyway,
        so nothing is scheduled and the mailbox's handler is returned,
        for the caller to run on ``item`` in its own entry.  ``None``
        otherwise -- the item was queued, scheduled, or swallowed by a
        stopped mailbox."""
        getters = self._getters
        if getters:
            getter = getters.popleft()
            if not getter.is_alive:
                return None
            env = self.env
            queue = env._queue
            fifo = env._fifo
            if not fifo and (not queue or queue[0][0] > env._now):
                return getter.handle
            # Inlined ``env._schedule_call(getter.handle, (item,))``:
            # this is the per-message delivery path and the extra frame
            # is measurable.
            pool = env._call_pool
            if pool:
                call = pool.pop()
                call.fn = getter.handle
                call.args = (item,)
            else:
                call = _ScheduledCall(getter.handle, (item,))
            fifo.append((env._now, next(env._counter), call))
            return None
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise QueueFull(f"store at capacity {self.capacity}")
        self._items.append(item)
        return None

    def consume(
        self, receive: Callable[[Any, str], None], name: str
    ) -> "Mailbox":
        """Drain this inbox of envelopes into ``receive(payload, src)``
        (the :class:`~repro.runtime.kernel.InboxLike` contract); ``name``
        owns the ``inbox_depth`` gauge."""
        return Mailbox(self, receive, name)


class Mailbox:
    """An actor's receive loop over a :class:`Store` of envelopes, kept
    as state:

    * it starts one scheduling step after it is created, then takes the
      next item: one queued item is handled in a step of its own; on an
      empty store it parks among the getters, and a put hands it the
      item in one step at ``now`` (:meth:`Store.put_nowait`) -- or, when
      that step would be the calendar's next anyway, in the putter's own
      (:meth:`Store.put_next`);
    * the ``inbox_depth`` gauge is recorded per item taken, before the
      handler, when the environment has a metrics registry;
    * stopped (:meth:`interrupt`), it loses the item whose handling is
      already scheduled, else the next one it takes -- an item taken at
      once, or the next put if it is parked (a stopped mailbox stays
      queued among the getters, and swallows it);
    * a handler that raises ends it, and the exception leaves
      :meth:`Environment.run`.
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
        """Stop taking items (``MailboxHandle.interrupt``)."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a stopped mailbox")
        self.is_alive = False

    def _take(self) -> None:
        store = self.store
        items = store._items
        if items:
            item = items.popleft()
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
