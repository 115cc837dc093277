"""The two-run calendar runs entries in a single heap's order.

The simulator's calendar keeps entries due later in a heap and entries
due *now* in a FIFO, merged by ``(time, seq)``.  This property test
runs random mixes of every way an entry enters the calendar -- calls
with zero, positive and float-absorbed delays, event success and
failure, timeouts, store puts and gets, zero-latency and delayed
network sends to actors, interrupts -- advanced by ``run(until=now)``,
repeated ``run(until=t)`` and single steps, on two environments: the
real one, and a reference whose FIFO hands every entry to the heap (the
single-heap calendar the FIFO must be indistinguishable from).  Both
draw the same ``seq`` for the same entry, so equal logs mean the FIFO
changed nothing about which entry runs when.
"""

from __future__ import annotations

import itertools
from heapq import heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.actor import Actor
from repro.sim import Environment, Interrupt, LinkSpec, Network, RngRegistry, Store

START = 1.0                    # so that ABSORBED vanishes when added to now
ABSORBED = 1e-18
DELAYS = st.sampled_from([0.0, ABSORBED, 1e-12, 0.25, 0.5]) | st.floats(0.0, 2.0)
KINDS = ("call", "succeed", "fail", "timeout", "put", "send", "interrupt")

# An op is (kind, delay, children): when it fires it logs itself and
# issues its children, so same-instant cascades nest.
OPS = st.recursive(
    st.tuples(st.sampled_from(KINDS), DELAYS, st.just(())),
    lambda children: st.tuples(
        st.sampled_from(KINDS), DELAYS, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=12,
)
ADVANCES = st.one_of(
    st.just(("now",)),
    st.tuples(st.just("until"), DELAYS),
    st.tuples(st.just("steps"), st.integers(1, 8)),
)
PROGRAMS = st.lists(
    st.tuples(st.lists(OPS, max_size=4), ADVANCES), min_size=1, max_size=6
)


class _IntoHeap:
    """A same-instant lane that is never used: every entry it is handed
    goes to the heap, and it always reads as empty."""

    def __init__(self, heap: list):
        self.heap = heap

    def append(self, entry) -> None:
        heappush(self.heap, entry)

    def __len__(self) -> int:
        return 0

    def popleft(self):
        raise AssertionError("an empty lane was popped")


class Tok:
    __slots__ = ("label", "op")

    def __init__(self, label, op):
        self.label = label
        self.op = op


class Sink(Actor):
    def __init__(self, env, network, name, fire):
        super().__init__(env, network, name)
        self.fire = fire

    def on_tok(self, msg, src):
        self.fire(msg.label, msg.op)


class Program:
    def __init__(self, env: Environment):
        self.env = env
        self.log: list = []
        self.labels = itertools.count()
        self.net = Network(env, rng=RngRegistry(0))
        self.net.add_host("a")
        self.sinks: dict[float, str] = {}
        self.store = Store(env)
        env.process(self._consume())

    def sink(self, latency: float) -> str:
        """The actor ``a`` reaches over a link of ``latency``."""
        name = self.sinks.get(latency)
        if name is None:
            name = self.sinks[latency] = f"after {latency!r}"
            self.net.set_link("a", name, LinkSpec(latency=latency))
            Sink(self.env, self.net, name, self.fire).start()
        return name

    def fire(self, label, op) -> None:
        self.log.append((label, self.env.now))
        for child in op[2]:
            self.issue(child)

    def issue(self, op) -> None:
        env = self.env
        kind, delay, _children = op
        label = next(self.labels)
        if kind == "call":
            env.call_later(delay, self.fire, label, op)
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _event: self.fire(label, op))
            event.succeed()
        elif kind == "fail":
            event = env.event()
            env.process(self._catch(event, label, op))
            event.fail(RuntimeError(label))
        elif kind == "timeout":
            env.process(self._sleep(delay, label, op))
        elif kind == "put":
            self.store.put_nowait((label, op))
        elif kind == "send":
            self.net.send("a", self.sink(delay), Tok(label, op), 64)
        else:
            napper = env.process(self._nap(label, op))
            env.call_later(delay, napper.interrupt)

    def _consume(self):
        while True:
            label, op = yield self.store.get()
            self.fire(label, op)

    def _catch(self, event, label, op):
        try:
            yield event
        except RuntimeError:
            self.fire(label, op)

    def _sleep(self, delay, label, op):
        yield self.env.timeout(delay)
        self.fire(label, op)

    def _nap(self, label, op):
        try:
            yield self.env.timeout(50.0)
        except Interrupt:
            self.fire(label, op)

    def play(self, phases) -> list:
        env = self.env
        for ops, advance in phases:
            for op in ops:
                self.issue(op)
            if advance[0] == "now":
                env.run(until=env.now)
            elif advance[0] == "until":
                env.run(until=env.now + advance[1])
            else:
                for _ in range(advance[1]):
                    if env.peek() == float("inf"):
                        break
                    env.step()
            self.log.append(("phase", env.now, env.peek()))
        env.run()
        self.log.append(("end", env.now, env.peek()))
        return self.log


def single_heap() -> Environment:
    env = Environment(initial_time=START)
    env._fifo = _IntoHeap(env._queue)
    return env


@settings(max_examples=200, deadline=None)
@given(PROGRAMS)
def test_two_run_calendar_runs_entries_in_single_heap_order(phases):
    assert START + ABSORBED == START
    expected = Program(single_heap()).play(phases)
    assert Program(Environment(initial_time=START)).play(phases) == expected


def test_the_reference_really_is_a_single_heap():
    env = single_heap()
    env.call_later(0.0, lambda: None)
    assert len(env._queue) == 1 and not env._fifo
    real = Environment(initial_time=START)
    real.call_later(0.0, lambda: None)
    assert not real._queue and len(real._fifo) == 1
