"""A delivery that is next anyway runs in its arrival's entry, unseen.

When a message reaches a parked mailbox and nothing else is due at
that instant, the network runs the handling inside the arrival's own
calendar entry instead of scheduling it (``Store.put_next``).  This
property test runs random scripts -- sends over links of zero and
positive latency, forwarding chains, same-instant timers, stops,
starts, crashes and recoveries -- on the real simulator and on a
reference whose inbox always schedules the handling (the two-entry
delivery), and requires the same handler order, the same ``env.now``
in each handler and the same trace at every category.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.actor import Actor
from repro.net.messages import Message
from repro.obs.trace import ALL_CATEGORIES, Tracer, installed
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.queues import Store

NODES = ("x", "y", "z")
DELAYS = st.sampled_from([0.0, 0.001, 0.0025])
ACTIONS = ("send", "timer", "stop", "start", "crash", "recover")

# An op is (action, node, delay, hops): ``delay`` from its phase's start
# it acts on ``node``; a sent message is forwarded ``hops`` more times.
OPS = st.tuples(
    st.sampled_from(ACTIONS), st.sampled_from(NODES), DELAYS,
    st.integers(0, 3),
)
SCRIPTS = st.tuples(
    st.lists(DELAYS, min_size=9, max_size=9),      # one per ordered link
    st.lists(
        st.tuples(st.lists(OPS, max_size=6), DELAYS), min_size=1, max_size=6
    ),
)


@dataclass(frozen=True)
class Hop(Message):
    label: int
    hops: int


class Node(Actor):
    """Logs each hop; forwards it while hops remain, and on odd hops
    also queues a same-instant call from inside the handler."""

    def __init__(self, env, network, name, log):
        super().__init__(env, network, name)
        self.log = log

    def on_hop(self, msg, src):
        now = self.env.now
        self.log.append((self.name, msg.label, msg.hops, src, now))
        if msg.hops:
            self.send(NODES[(msg.label + msg.hops) % 3],
                      Hop(msg.label, msg.hops - 1))
            if msg.hops % 2:
                self.env.call_later(
                    0.0, self.log.append, ("tick", msg.label, now)
                )


def play(script, traced: bool) -> tuple[list, list]:
    """The handler log of one run, and its trace at every category
    (untraced, the mailbox calls ``dispatch`` itself)."""
    latencies, phases = script
    events: list = []
    tracer = Tracer([events.append], categories=ALL_CATEGORIES)
    with installed(tracer=tracer if traced else None):
        env = Environment()
        net = Network(env, default_link=LinkSpec(latency=0.001))
    log: list = []
    nodes = {name: Node(env, net, name, log) for name in NODES}
    for index, latency in enumerate(latencies):
        src, dst = NODES[index // 3], NODES[index % 3]
        net.set_link(src, dst, LinkSpec(latency=latency))
    for node in nodes.values():
        node.start()
    labels = iter(range(10**6))

    def act(action, node, hops, label):
        log.append((action, node.name, label, env.now))
        if action == "send":
            nodes[NODES[label % 3]].send(node.name, Hop(label, hops))
        elif action == "stop":
            node.stop()
        elif action == "start" and not node.running and not node.crashed:
            node.start()
        elif action == "crash" and not node.crashed:
            node.crash()
        elif action == "recover" and node.crashed:
            node.recover()

    for ops, advance in phases:
        for action, name, delay, hops in ops:
            env.call_later(delay, act, action, nodes[name], hops, next(labels))
        env.run(until=env.now + advance)
    env.run()
    return log, events


def _always_schedule(self, item):
    """The reference delivery (``Store.put_next`` as it was): a parked
    mailbox's handling is always a same-instant entry of its own, and a
    stopped one swallows the item."""
    getters = self._getters
    if getters:
        getter = getters.popleft()
        if getter.is_alive:
            self.env.call_later(0.0, getter.handle, item)
        return None
    self._items.append(item)
    return None


def play_reference(script, traced: bool) -> tuple[list, list]:
    with mock.patch.object(Store, "put_next", _always_schedule):
        return play(script, traced)


@settings(max_examples=300, deadline=None)
@given(SCRIPTS)
def test_a_handling_run_in_its_arrival_entry_changes_nothing_observable(script):
    for traced in (True, False):
        expected = play_reference(script, traced)
        assert play(script, traced) == expected


def test_the_reference_really_schedules_every_handling():
    def steps(store_put_next):
        with mock.patch.object(Store, "put_next", store_put_next):
            env = Environment()
            net = Network(env, default_link=LinkSpec(latency=0.001))
            node = Node(env, net, "x", [])
            node.start()
            env.run()
            net.send("x", "x", Hop(0, 0), 64)
            count = 0
            while env.peek() != float("inf"):
                env.step()
                count += 1
            assert node.log == [("x", 0, 0, "x", 0.001)]
            return count

    assert steps(_always_schedule) == 2
    assert steps(Store.put_next) == 1
