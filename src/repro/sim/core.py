"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event simulator
in the style of SimPy.  The :class:`Environment` owns virtual time and
an event calendar, and advances time from one scheduled entry to the
next.  Protocol actors are no generators: they run as calendar entries
-- a message handled by an actor's mailbox, a ``call_later``, a firing
of a periodic timer (:func:`repro.runtime.kernel.every`) -- each owned
by one actor.  Generator processes that ``yield`` events (timeouts,
other processes, :class:`AnyOf`) are for the scripts that drive a
simulated run: load generators, fault schedules, experiment phases.

Design notes
------------
* Determinism: events scheduled for the same instant fire in FIFO
  order of scheduling (a monotonically increasing sequence number breaks
  ties), so a fixed seed yields a bit-identical run.
* Failure handling: exceptions raised inside a process propagate to the
  processes waiting on it, and ultimately out of :meth:`Environment.run`
  if nobody catches them.  Errors never pass silently.
* Interrupts: a process may be interrupted (a script stopping a load
  loop, a request timeout) which raises :class:`Interrupt` inside it.
* Hot path: the calendar holds two kinds of entries -- full
  :class:`Event` objects (waitable, with callback lists) and pooled
  :class:`_ScheduledCall` records (plain ``fn(*args)`` at an instant,
  no callback list, recycled through a free list).  Message delivery,
  timer firings, throttle wakeups and process resumption at the
  current instant all use the pooled fast path.  A message costs two
  entries: its arrival (``Network.send``) and its handling -- a
  delivery to an actor whose mailbox is parked schedules the handler
  itself
  (:class:`repro.sim.queues.Mailbox`), in the slot the receive loop's
  wakeup used to take, with no event and no generator in between.
* The calendar is two sorted runs merged by ``(time, seq)``: a heap for
  entries due later and a FIFO for entries due *now*, which is where
  the second entry of every message and most wakeups land.  Every push
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
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.trace import current_metrics, current_tracer
from ..runtime.kernel import GC_THRESHOLD, Interrupt

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Base class for simulation kernel errors."""


_PENDING = object()


class _ScheduledCall:
    """A pooled calendar entry: run ``fn(*args)`` at an instant.

    Not an event -- nothing can wait on it, it has no value and no
    callback list, which is exactly why it is cheap.  Instances are
    recycled through the environment's free list once executed.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Optional[Callable], args: tuple):
        self.fn = fn
        self.args = args


class Event:
    """An event that may succeed (with a value) or fail (with an exception).

    Processes wait on events by yielding them.  Callbacks attached to an
    event run when the event is *processed* (popped from the calendar),
    in attachment order.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._fifo.append((env._now, next(env._counter), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay.

    Construction is flattened (no chained ``__init__``) because a
    timeout is born triggered: it only exists to sit in the calendar.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._schedule(self, delay)


class Process(Event):
    """A running process; itself an event that triggers on termination.

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event succeeds, the generator is resumed with the event's
    value; when it fails, the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume the process at the current instant.
        env._schedule_call(self._advance_checked, (True, None))

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process.

        Interrupting a terminated process is an error; interrupting a
        process that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        self._detach_from_target()
        self.env._schedule_call(self._deliver_interrupt, (Interrupt(cause),))

    def _detach_from_target(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        # The process may have acquired a (new) wait target between the
        # interrupt being requested and delivered; detach from it now or
        # its later firing would resume a terminated generator.
        if self.triggered:
            return  # terminated in the meantime: nothing to interrupt
        self._detach_from_target()
        self._advance(False, exc, None)

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:   # i.e. ``self.triggered``
            # Stale wakeup: an event we were once waiting on fired after
            # the process already terminated (interrupt delivery race).
            if not event._ok:
                event._defused = True
            return
        self._target = None
        if event._ok:
            self._advance(True, event._value, None)
        else:
            self._advance(False, event._value, event)

    def _advance_checked(self, ok: bool, value: Any) -> None:
        """Scheduled-call entry point (bootstrap / already-processed
        targets); guards against the process having terminated in the
        meantime (interrupt delivered at the same instant)."""
        if self.triggered:
            return
        self._target = None
        self._advance(ok, value, None)

    def _advance(self, ok: bool, value: Any, failed_event: Optional[Event]) -> None:
        try:
            if ok:
                next_event = self._generator.send(value)
            else:
                # Mark the failure as handled: it is being delivered.
                if failed_event is not None:
                    failed_event._defused = True
                next_event = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process with failure.
            self.fail(exc)
            return
        except BaseException as exc:  # propagate to waiters / run()
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded a non-event: {next_event!r}"))
            return
        if next_event.callbacks is None:
            # Already processed: resume immediately at this instant.  A
            # processed failure was consumed by whoever processed it, so
            # the re-delivery here needs no defuse bookkeeping.
            self.env._schedule_call(
                self._advance_checked, (next_event._ok, next_event._value)
            )
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
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

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


# Free-list bound: enough to absorb bursts of same-instant deliveries
# without letting an idle pool pin memory.
_CALL_POOL_LIMIT = 512


class Environment:
    """Owns virtual time and the event calendar.

    Typical use::

        env = Environment()

        def clock(env, name, tick):
            while True:
                yield env.timeout(tick)
                print(name, env.now)

        env.process(clock(env, "fast", 0.5))
        env.run(until=2.0)
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # The calendar: ``(time, seq, entry)`` triples, due later in the
        # heap, due now in the FIFO (module docstring).
        self._queue: list[tuple[float, int, Any]] = []
        self._fifo: deque[tuple[float, int, Any]] = deque()
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

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        now = self._now
        when = now + delay
        if when == now:
            self._fifo.append((when, next(self._counter), event))
        else:
            heappush(self._queue, (when, next(self._counter), event))

    def _schedule_call(self, fn: Callable, args: tuple, delay: float = 0.0) -> None:
        """Schedule ``fn(*args)`` via the pooled fast path."""
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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        tracer = self.tracer
        if tracer is not None and tracer.wants_sim:
            tracer.emit(
                "sim.process",
                self._now,
                name=getattr(generator, "__name__", repr(generator)),
            )
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run after ``delay`` time units.

        The hot-path scheduling primitive (message delivery, wakeups):
        it allocates no event and no callback list -- the calendar entry
        is a pooled record recycled after it runs.  Nothing can wait on
        a scheduled call; spawn a process or use :meth:`timeout` when a
        waitable event is needed.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._schedule_call(fn, args, delay)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``.

        Convenience over :meth:`call_later` for pre-compiled schedules
        (fault injection plans are authored in absolute sim time).
        """
        if when < self._now:
            raise ValueError(f"when ({when}) lies in the past (now={self._now})")
        self._schedule_call(fn, args, when - self._now)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._fifo:
            return self._fifo[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def _pop(self) -> tuple[float, int, Any]:
        """Remove the calendar's first entry in ``(time, seq)`` order:
        the FIFO's head unless the heap's is earlier (seqs are unique,
        so the comparison never reaches the entries)."""
        fifo, queue = self._fifo, self._queue
        if fifo and not (queue and queue[0] < fifo[0]):
            return fifo.popleft()
        return heappop(queue)

    def step(self) -> None:
        """Process exactly one event from the calendar."""
        if not self._queue and not self._fifo:
            raise SimulationError("no more events")
        when, _, event = self._pop()
        self._now = when
        if event.__class__ is _ScheduledCall:
            fn, args = event.fn, event.args
            pool = self._call_pool
            if len(pool) < _CALL_POOL_LIMIT:
                event.fn = None
                event.args = ()
                pool.append(event)
            fn(*args)
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody consumed: crash the simulation loudly.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or virtual time reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if no event is scheduled at that instant.

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
            stop = Event(self)
            stop._ok = True
            stop._value = None
            self._schedule(stop, until - self._now)
        threshold = gc.get_threshold()
        gc.set_threshold(*GC_THRESHOLD)
        try:
            self._drain(stop)
        finally:
            gc.set_threshold(*threshold)
        if until is not None:
            self._now = until

    def _drain(self, stop: Optional[Event]) -> None:
        """Run entries in ``(time, seq)`` order until ``stop`` is next
        or the calendar is empty (:meth:`_pop`, inlined)."""
        queue = self._queue
        fifo = self._fifo
        popleft = fifo.popleft
        pool = self._call_pool
        while True:
            if fifo:
                if queue and queue[0] < fifo[0]:
                    t, _seq, event = heappop(queue)
                else:
                    t, _seq, event = popleft()
            elif queue:
                t, _seq, event = heappop(queue)
            else:
                return
            if event is stop:
                return
            self._now = t
            if event.__class__ is _ScheduledCall:
                fn, args = event.fn, event.args
                if len(pool) < _CALL_POOL_LIMIT:
                    event.fn = None
                    event.args = ()
                    pool.append(event)
                fn(*args)
                continue
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failure nobody consumed: crash the simulation loudly.
                raise event._value
