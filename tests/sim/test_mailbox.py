"""The simulator's mailbox: an actor's receive loop without a process.

Two groups.  The behaviour tests pin, through the actor API alone, what
a receive loop running as a process (``yield inbox.get()``) did --
which messages a stopped, crashed or failed loop loses, which wait in
the inbox, and in which order and at which instant the rest are
handled -- so the mailbox that replaced the process does the same.
The cost guards pin what a delivery costs now: no event, no generator
resume, one heap entry for the arrival and one same-instant entry for
the handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.net.actor import Actor
from repro.net.messages import Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import installed
from repro.sim import Environment, LinkSpec, Network
from repro.sim import core


@dataclass(frozen=True)
class Ping(Message):
    n: int


class Recorder(Actor):
    """Logs ``(n, now)`` per ping; ``hooks[n]`` runs after handling n."""

    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.seen = []
        self.hooks = {}

    def on_ping(self, msg, src):
        self.seen.append((msg.n, self.env.now))
        hook = self.hooks.get(msg.n)
        if hook is not None:
            hook()


def world(latency=0.001):
    env = Environment()
    net = Network(env, default_link=LinkSpec(latency=latency))
    net.add_host("a")
    b = Recorder(env, net, "b")
    return env, net, b


def send(net, *numbers):
    for n in numbers:
        net.send("a", "b", Ping(n=n), 64)


# -- behaviour ---------------------------------------------------------------


def test_messages_queued_before_start_are_handled_in_order_at_start():
    env, net, b = world()
    send(net, 1, 2, 3)
    env.run(until=0.01)
    assert [e.payload.n for e in b.host.inbox.items] == [1, 2, 3]
    b.start()
    env.run(until=0.02)
    assert b.seen == [(1, 0.01), (2, 0.01), (3, 0.01)]
    assert len(b.host.inbox) == 0


def test_a_burst_at_one_instant_is_handled_in_arrival_order():
    env, net, b = world(latency=0.0)
    b.start()
    env.run()
    send(net, 1, 2, 3)
    env.run()
    assert b.seen == [(1, 0.0), (2, 0.0), (3, 0.0)]


def test_each_stop_of_a_parked_actor_loses_one_later_message():
    # A stopped loop's getter stays queued in the inbox and swallows the
    # next message; two stop/start cycles leave two of them.
    env, net, b = world()
    b.start()
    env.run(until=0.01)
    for _ in range(2):
        b.stop()
        b.start()
        env.run(until=env.now)
    send(net, 1, 2, 3)
    env.run(until=0.1)
    assert [n for n, _ in b.seen] == [3]


def test_stop_before_the_first_step_still_loses_one_message():
    env, net, b = world()
    b.start()
    b.stop()
    send(net, 1, 2)
    env.run(until=0.1)
    assert b.seen == []
    assert [e.payload.n for e in b.host.inbox.items] == [2]


def test_stop_while_a_handling_is_scheduled_loses_that_message_only():
    env, net, b = world(latency=0.0)
    b.start()
    env.run()
    send(net, 1, 2)                # arrivals are now; handlings not yet
    env.call_later(0.0, b.stop)    # lands between the arrivals' steps
    env.run()
    # 1's arrival handed it to the parked mailbox; the stop came before
    # its handling; 2 arrived to a mailbox that was not parked.
    assert b.seen == []
    assert [e.payload.n for e in b.host.inbox.items] == [2]
    b.start()
    env.run()
    assert [n for n, _ in b.seen] == [2]


def test_stop_inside_a_handler_loses_the_next_queued_message():
    env, net, b = world(latency=0.0)
    b.start()
    env.run()
    b.hooks[1] = b.stop
    send(net, 1, 2, 3)
    env.run()
    assert [n for n, _ in b.seen] == [1]
    assert [e.payload.n for e in b.host.inbox.items] == [3]


def test_stop_inside_the_last_handler_loses_the_next_arrival():
    env, net, b = world()
    b.start()
    b.hooks[1] = b.stop
    send(net, 1)
    env.run(until=0.01)
    send(net, 2, 3)
    env.run(until=0.02)
    assert [n for n, _ in b.seen] == [1]
    assert [e.payload.n for e in b.host.inbox.items] == [3]


def test_crash_inside_a_handler_and_recover_starts_clean():
    env, net, b = world(latency=0.0)
    b.start()
    env.run()
    b.hooks[1] = b.crash
    send(net, 1, 2)
    env.run()
    assert [n for n, _ in b.seen] == [1]
    b.recover()
    send(net, 3)
    env.run()
    assert [n for n, _ in b.seen] == [1, 3]
    assert len(b.host.inbox) == 0


def test_a_handler_that_raises_ends_the_mailbox_and_the_run():
    env, net, b = world(latency=0.0)
    b.start()
    env.run()

    def boom():
        raise RuntimeError("handler bug")

    b.hooks[1] = boom
    send(net, 1)
    with pytest.raises(RuntimeError, match="handler bug"):
        env.run()
    assert not b.running
    send(net, 2)
    env.run()
    assert [n for n, _ in b.seen] == [1]
    assert [e.payload.n for e in b.host.inbox.items] == [2]


def test_inbox_depth_gauge_is_recorded_per_message_taken():
    registry = MetricsRegistry()
    with installed(metrics=registry):
        env, net, b = world(latency=0.0)
    send(net, 1, 2, 3)
    env.run()
    b.start()
    env.run()
    gauge = registry.gauge("b", "inbox_depth")
    assert gauge.series.values == (2, 1, 0)
    assert gauge.peak == 2


# -- cost guards ---------------------------------------------------------------


@pytest.fixture
def events_built(monkeypatch):
    """Counts every Event (Timeout, Process and conditions included)
    constructed while the test runs."""
    built = []
    for cls in (core.Event, core.Timeout):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_a_delivery_to_a_parked_actor_is_one_arrival_and_one_handling(
    events_built,
):
    env, net, b = world()
    b.start()
    env.run()                      # the mailbox parks
    events_built.clear()
    send(net, 1)
    assert len(env._queue) == 1 and not env._fifo     # its arrival
    env.step()
    assert not env._queue and len(env._fifo) == 1     # its handling, now
    env.step()
    assert b.seen == [(1, 0.001)]
    assert not env._queue and not env._fifo
    assert events_built == []      # no getter, no process resume


def test_a_backlog_is_one_same_instant_entry_per_message(events_built):
    env, net, b = world(latency=0.0)
    send(net, 1, 2, 3)
    env.run()
    events_built.clear()
    b.start()
    steps = 0
    while env._queue or env._fifo:
        assert not env._queue
        env.step()
        steps += 1
    assert steps == 4              # the start, then one per message
    assert [n for n, _ in b.seen] == [1, 2, 3]
    assert events_built == []


@pytest.mark.parametrize("delay", [0.0, 1e-18])
def test_a_call_due_now_never_touches_the_heap(delay):
    env = Environment(initial_time=1.0)
    assert 1.0 + delay == 1.0      # 1e-18 is absorbed by the float
    env.call_later(delay, lambda: None)
    assert not env._queue and len(env._fifo) == 1
    env.call_later(0.5, lambda: None)
    assert len(env._queue) == 1 and len(env._fifo) == 1
