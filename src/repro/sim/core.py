"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event simulator.
The :class:`Environment` owns virtual time and a calendar of deferred
calls, and advances time from one scheduled entry to the next.  There
is one kind of entry: ``fn(*args)`` at an instant, owned by the actor
or script that scheduled it -- a message handled by an actor's
mailbox, a ``call_later`` / ``call_at``, a firing of a periodic timer
(:func:`repro.runtime.kernel.every`).  The scripts that drive a
simulated run (load loops, closed-loop clients, experiment phases) are
chains of such calls, exactly as the protocol actors are.

Design notes
------------
* Determinism: entries scheduled for the same instant run in FIFO
  order of scheduling (a monotonically increasing sequence number breaks
  ties), so a fixed seed yields a bit-identical run.
* Failure handling: an exception raised by an entry propagates out of
  :meth:`Environment.run`.  Errors never pass silently.
* Hot path: calendar entries are pooled :class:`_ScheduledCall`
  records (no callback list, recycled through a free list).  A message
  costs one entry, its arrival (``Network.send``), when its handling
  would be the next entry anyway -- the receiver's mailbox is parked
  and nothing else is due at that instant -- and two otherwise: the
  delivery then schedules the handler itself
  (:meth:`repro.sim.queues.Store.put_next`).
* The calendar is two sorted runs merged by ``(time, seq)``: a heap for
  entries due later and a FIFO for entries due *now*, which is where a
  message's second entry and most wakeups land.  Every push
  site routes an entry whose time equals ``now`` to the FIFO (its
  ``seq`` is the largest drawn, so appending keeps the run sorted), so
  the order is exactly a single heap's and same-seed runs stay
  bit-identical.
* Collector: :meth:`Environment.run` runs with the live datapath's
  generation sizes (:data:`repro.runtime.kernel.GC_THRESHOLD`) and
  restores the caller's on exit.  Most of what a run allocates dies
  young and none of it is cyclic, so at the default sizes the full
  collections did little but sweep the model.  Nothing is frozen: a
  freeze at ``run()`` would pin whatever earlier runs in the process
  left uncollected.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..obs.trace import current_metrics, current_tracer
from ..runtime.kernel import GC_THRESHOLD

__all__ = ["Environment", "SimulationError"]


class SimulationError(Exception):
    """Base class for simulation kernel errors."""


class _ScheduledCall:
    """A pooled calendar entry: run ``fn(*args)`` at an instant.

    Instances are recycled through the environment's free list once
    executed.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Optional[Callable], args: tuple):
        self.fn = fn
        self.args = args


def _nothing() -> None:
    """The ``run(until=)`` sentinel's call, should a run that raised
    leave it in the calendar."""


# Free-list bound: enough to absorb bursts of same-instant deliveries
# without letting an idle pool pin memory.
_CALL_POOL_LIMIT = 512


class Environment:
    """Owns virtual time and the calendar.

    Typical use::

        env = Environment()

        def tick(name, interval):
            print(name, env.now)
            env.call_later(interval, tick, name, interval)

        env.call_later(0.5, tick, "fast", 0.5)
        env.run(until=2.0)
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # The calendar: ``(time, seq, entry)`` triples, due later in the
        # heap, due now in the FIFO (module docstring).
        self._queue: list[tuple[float, int, _ScheduledCall]] = []
        self._fifo: deque[tuple[float, int, _ScheduledCall]] = deque()
        self._counter = itertools.count()
        self._call_pool: list[_ScheduledCall] = []
        # Observability: adopt the process-wide tracer / metrics registry
        # at construction (see repro.obs.trace).  Both default to None;
        # probe sites guard with a single `is None` test.
        self.tracer = current_tracer()
        self.metrics = current_metrics()
        if self.metrics is not None:
            self.metrics.bind(self)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def _schedule_call(
        self, fn: Callable, args: tuple, delay: float = 0.0
    ) -> _ScheduledCall:
        """Schedule ``fn(*args)`` through the free list; returns the
        entry (``run`` stops at its sentinel's)."""
        pool = self._call_pool
        if pool:
            call = pool.pop()
            call.fn = fn
            call.args = args
        else:
            call = _ScheduledCall(fn, args)
        now = self._now
        when = now + delay
        if when == now:
            self._fifo.append((when, next(self._counter), call))
        else:
            heappush(self._queue, (when, next(self._counter), call))
        return call

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._schedule_call(fn, args, delay)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``.

        Convenience over :meth:`call_later` for schedules authored in
        absolute sim time (fault plans, experiment phases).
        """
        if when < self._now:
            raise ValueError(f"when ({when}) lies in the past (now={self._now})")
        self._schedule_call(fn, args, when - self._now)

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._fifo:
            return self._fifo[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def _pop(self) -> tuple[float, int, _ScheduledCall]:
        """Remove the calendar's first entry in ``(time, seq)`` order:
        the FIFO's head unless the heap's is earlier (seqs are unique,
        so the comparison never reaches the entries)."""
        fifo, queue = self._fifo, self._queue
        if fifo and not (queue and queue[0] < fifo[0]):
            return fifo.popleft()
        return heappop(queue)

    def step(self) -> None:
        """Run exactly one entry from the calendar."""
        if not self._queue and not self._fifo:
            raise SimulationError("no more events")
        when, _, call = self._pop()
        self._now = when
        fn, args = call.fn, call.args
        pool = self._call_pool
        if len(pool) < _CALL_POOL_LIMIT:
            call.fn = None
            call.args = ()
            pool.append(call)
        fn(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or virtual time reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if no entry is scheduled at that instant: a
        sentinel entry, drawn now, marks where the run stops.

        The drain loop is inlined (rather than delegating to
        :meth:`step`) -- it is the single hottest loop in the
        reproduction and the method-call overhead is measurable.  It
        runs under the collector policy (module docstring).
        """
        stop = None
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until ({until}) lies in the past (now={self._now})"
                )
            stop = self._schedule_call(_nothing, (), until - self._now)
        threshold = gc.get_threshold()
        gc.set_threshold(*GC_THRESHOLD)
        try:
            self._drain(stop)
        finally:
            gc.set_threshold(*threshold)
        if until is not None:
            self._now = until

    def _drain(self, stop: Optional[_ScheduledCall]) -> None:
        """Run entries in ``(time, seq)`` order until ``stop`` is next
        or the calendar is empty (:meth:`_pop`, inlined)."""
        queue = self._queue
        fifo = self._fifo
        popleft = fifo.popleft
        pool = self._call_pool
        while True:
            if fifo:
                if queue and queue[0] < fifo[0]:
                    t, _seq, call = heappop(queue)
                else:
                    t, _seq, call = popleft()
            elif queue:
                t, _seq, call = heappop(queue)
            else:
                return
            if call is stop:
                return
            self._now = t
            fn, args = call.fn, call.args
            if len(pool) < _CALL_POOL_LIMIT:
                call.fn = None
                call.args = ()
                pool.append(call)
            fn(*args)
