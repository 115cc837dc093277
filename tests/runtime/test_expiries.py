"""One timeout over many waits (``runtime.kernel.Expiries``): each item
expires exactly ``timeout`` after it was added unless it stopped waiting
first, items due at one instant expire in the order they were added,
and the calendar holds one entry for all of them -- on the helper
itself and on the closed-loop client that uses it."""

from __future__ import annotations

from types import SimpleNamespace

from repro.harness.broadcast import BroadcastClient
from repro.obs.trace import ListSink, Tracer, installed
from repro.runtime.kernel import Expiries
from repro.sim.core import Environment
from repro.sim.network import Network


class Wait:
    """An item: waits until it is answered or its owner stops."""

    def __init__(self, name):
        self.name = name
        self.answered = False
        self.stopped = False

    def waiting(self) -> bool:
        return not self.answered and not self.stopped


def fixture(timeout=2.0):
    env = Environment()
    expired = []
    expiries = Expiries(
        env, timeout, lambda item: expired.append((item.name, env.now)),
        Wait.waiting,
    )
    return env, expiries, expired


def entries(env) -> int:
    """Calendar entries owned by any :class:`Expiries`."""
    calls = [call for _t, _s, call in env._queue] + [
        call for _t, _s, call in env._fifo
    ]
    return sum(
        getattr(call.fn, "__func__", None) is Expiries._fire for call in calls
    )


def test_an_unanswered_item_expires_exactly_timeout_after_it_was_added():
    env, expiries, expired = fixture()
    for at, name in [(0.3, "a"), (0.7, "b"), (2.9, "c")]:
        env.call_at(at, expiries.add, Wait(name))
    env.run()
    assert expired == [("a", 0.3 + 2.0), ("b", 0.7 + 2.0), ("c", 2.9 + 2.0)]


def test_an_answered_item_never_expires_and_costs_no_entry():
    env, expiries, expired = fixture()
    waits = [Wait(str(i)) for i in range(50)]
    for i, wait in enumerate(waits):
        env.call_at(0.01 * i, expiries.add, wait)
        env.call_at(0.01 * i + 0.005, setattr, wait, "answered", True)
    late = Wait("late")
    env.call_at(1.0, expiries.add, late)
    env.run(until=1.5)
    assert entries(env) == 1        # one entry for 51 items
    env.run()
    assert expired == [("late", 3.0)]


def test_items_due_at_one_instant_expire_in_the_order_they_were_added():
    env, expiries, expired = fixture()
    names = ["c", "a", "b", "d"]
    for name in names:
        expiries.add(Wait(name))
    env.run()
    assert expired == [(name, 2.0) for name in names]


def test_an_item_whose_owner_stopped_is_dropped():
    env, expiries, expired = fixture()
    first, second = Wait("first"), Wait("second")
    expiries.add(first)
    env.call_at(0.5, expiries.add, second)
    env.call_at(1.0, setattr, first, "stopped", True)
    env.run()
    assert expired == [("second", 2.5)]


def test_an_expiry_may_add_the_next_item():
    env = Environment()
    expired = []

    def retry(item):
        expired.append((item.name, env.now))
        if len(expired) < 3:
            expiries.add(Wait(item.name))

    expiries = Expiries(env, 1.0, retry, Wait.waiting)
    expiries.add(Wait("x"))
    env.run()
    assert expired == [("x", 1.0), ("x", 2.0), ("x", 3.0)]


def test_a_client_holds_one_entry_and_times_out_unacked_values():
    # The coordinator's host has no actor: no value is ever acked.
    sink = ListSink()
    with installed(tracer=Tracer([sink])):
        env = Environment()
        network = Network(env)
    network.add_host("void")
    stream = SimpleNamespace(config=SimpleNamespace(coordinator="void"))
    directory = {"S1": stream}
    client = BroadcastClient(env, network, "client", directory, timeout=2.0)
    client.start_threads("S1", 3)
    env.run(until=1.0)
    assert entries(env) == 1
    env.run(until=4.5)
    stamps = [e["ts"] for e in sink.events if e["kind"] == "client.timeout"]
    assert stamps == [2.0] * 3 + [4.0] * 3
    assert client.timeouts == 6
    client.stop_threads()
    env.run(until=10.0)
    assert client.timeouts == 6     # the stopped threads' attempts dropped
    assert entries(env) == 0
