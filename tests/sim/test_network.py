"""Unit tests for the network model."""

import pytest

from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def make_net(**kwargs):
    env = Environment()
    net = Network(env, rng=RngRegistry(7), **kwargs)
    for name in ("a", "b", "c"):
        net.add_host(name)
    return env, net


def test_message_arrives_after_latency():
    env, net = make_net(default_link=LinkSpec(latency=0.01))
    net.send("a", "b", "hello", size=10)
    env.run()
    inbox = net.host("b").inbox
    assert len(inbox) == 1
    envelope = inbox.items[0]
    assert envelope.payload == "hello"
    assert envelope.delivered_at == pytest.approx(0.01)


def test_bandwidth_serialises_messages():
    env, net = make_net(default_link=LinkSpec(latency=0.0, bandwidth=100.0))
    net.send("a", "b", "m1", size=100)  # 1 second of tx time
    net.send("a", "b", "m2", size=100)  # queued behind m1
    env.run()
    arrivals = [e.delivered_at for e in net.host("b").inbox.items]
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]


def test_per_link_fifo_even_with_jitter():
    env, net = make_net(default_link=LinkSpec(latency=0.001, jitter=0.05))
    for i in range(50):
        net.send("a", "b", i, size=1)
    env.run()
    payloads = [e.payload for e in net.host("b").inbox.items]
    assert payloads == list(range(50))


def test_crashed_receiver_drops_messages():
    env, net = make_net()
    net.host("b").crash()
    net.send("a", "b", "lost")
    env.run()
    assert len(net.host("b").inbox) == 0
    assert net.messages_dropped == 1


def test_recovered_host_receives_again():
    env, net = make_net()
    net.host("b").crash()
    net.send("a", "b", "lost")
    env.run()
    net.host("b").recover()
    net.send("a", "b", "found")
    env.run()
    assert [e.payload for e in net.host("b").inbox.items] == ["found"]


def test_partition_blocks_both_directions():
    env, net = make_net()
    net.partition({"a"}, {"b"})
    net.send("a", "b", "x")
    net.send("b", "a", "y")
    env.run()
    assert len(net.host("a").inbox) == 0
    assert len(net.host("b").inbox) == 0
    assert net.messages_dropped == 2


def test_heal_restores_connectivity():
    env, net = make_net()
    net.partition({"a"}, {"b"})
    net.heal()
    net.send("a", "b", "x")
    env.run()
    assert len(net.host("b").inbox) == 1


def test_lossy_link_drops_some_messages():
    env, net = make_net()
    net.set_link("a", "b", LinkSpec(latency=0.001, loss=0.5))
    for i in range(200):
        net.send("a", "b", i)
    env.run()
    delivered = len(net.host("b").inbox)
    assert 0 < delivered < 200


def test_broadcast_reaches_all_destinations():
    env, net = make_net()
    net.broadcast("a", ["b", "c"], "hi")
    env.run()
    assert len(net.host("b").inbox) == 1
    assert len(net.host("c").inbox) == 1


def test_unknown_host_raises():
    env, net = make_net()
    with pytest.raises(KeyError):
        net.send("a", "zz", "x")


def test_crash_clears_pending_inbox():
    env, net = make_net()
    net.send("a", "b", "x")
    env.run()
    assert len(net.host("b").inbox) == 1
    net.host("b").crash()
    assert len(net.host("b").inbox) == 0


def test_message_counters():
    env, net = make_net()
    net.send("a", "b", "x", size=100)
    net.send("a", "c", "y", size=50)
    env.run()
    assert net.messages_sent == 2
    assert net.messages_delivered == 2
    assert net.bytes_delivered == 150


# -- partitions vs in-flight traffic -----------------------------------


def test_healed_partition_flushes_no_stale_envelopes():
    """A message in flight when the partition forms must not pop out of
    the link after the heal: it was dropped, and post-heal traffic
    arrives in clean FIFO order with nothing stale in front of it."""
    env, net = make_net(default_link=LinkSpec(latency=0.01))
    net.send("a", "b", "in-flight")          # arrives t=0.01 ...
    env.run(until=0.005)
    net.partition({"a"}, {"b"})              # ... but the cut forms first
    env.run(until=0.02)
    assert len(net.host("b").inbox) == 0     # dropped at delivery time
    assert net.messages_dropped == 1

    net.unpartition({"a"}, {"b"})
    for i in range(5):
        net.send("a", "b", i)
    env.run()
    payloads = [e.payload for e in net.host("b").inbox.items]
    assert payloads == list(range(5))        # FIFO, no stale envelope


def test_unpartition_is_selective():
    env, net = make_net()
    net.partition({"a"}, {"b"})
    net.partition({"a"}, {"c"})
    net.unpartition({"a"}, {"b"})
    net.send("a", "b", "through")
    net.send("a", "c", "blocked")
    env.run()
    assert len(net.host("b").inbox) == 1
    assert len(net.host("c").inbox) == 0
    assert net.is_partitioned("a", "c")
    assert not net.is_partitioned("a", "b")


# -- crash/reboot vs in-flight traffic ---------------------------------


def test_stale_envelope_dropped_across_reboot():
    """An envelope in flight when the receiver crashes must not land in
    the rebooted host's fresh inbox: the old incarnation's connections
    died with it."""
    env, net = make_net(default_link=LinkSpec(latency=0.01))
    net.send("a", "b", "stale")              # arrives t=0.01
    env.run(until=0.005)
    net.host("b").crash()
    net.host("b").recover()                  # reboot completes before arrival
    env.run(until=0.02)
    assert len(net.host("b").inbox) == 0
    assert net.messages_dropped == 1

    net.send("a", "b", "fresh")              # new incarnation's traffic flows
    env.run()
    assert [e.payload for e in net.host("b").inbox.items] == ["fresh"]


# -- fault-rule overlays -----------------------------------------------


def test_fault_rule_selectors():
    from repro.sim.network import FaultRule

    rule = FaultRule(src="a", dst=("b", "c"), loss=1.0)
    assert rule.matches("a", "b")
    assert rule.matches("a", "c")
    assert not rule.matches("b", "a")
    assert not rule.matches("c", "b")
    anywhere = FaultRule(loss=1.0)
    assert anywhere.matches("a", "b")
    assert anywhere.matches("x", "y")


def test_loss_window_installs_and_removes():
    from repro.sim.network import FaultRule

    env, net = make_net()
    rule = net.add_fault(FaultRule(src="a", dst="b", loss=1.0))
    net.send("a", "b", "lost")
    net.send("a", "c", "other-link")         # rule does not match
    env.run()
    assert len(net.host("b").inbox) == 0
    assert len(net.host("c").inbox) == 1

    net.remove_fault(rule)
    net.send("a", "b", "after")
    env.run()
    assert [e.payload for e in net.host("b").inbox.items] == ["after"]


def test_delay_spike_adds_latency():
    from repro.sim.network import FaultRule

    env, net = make_net(default_link=LinkSpec(latency=0.001))
    net.add_fault(FaultRule(extra_latency=0.05))
    net.send("a", "b", "slow")
    env.run()
    envelope = net.host("b").inbox.items[0]
    assert envelope.delivered_at == pytest.approx(0.051)


def test_duplicate_rule_delivers_second_copy():
    from repro.sim.network import FaultRule

    env, net = make_net(default_link=LinkSpec(latency=0.001))
    net.add_fault(FaultRule(duplicate=1.0))
    net.send("a", "b", "twice")
    env.run()
    items = net.host("b").inbox.items
    assert [e.payload for e in items] == ["twice", "twice"]
    assert [e.duplicated for e in items] == [False, True]
    assert net.messages_duplicated == 1
    assert net.messages_delivered == 2


def test_reorder_rule_bypasses_fifo():
    from repro.sim.network import FaultRule

    env, net = make_net(default_link=LinkSpec(latency=0.001))
    net.add_fault(FaultRule(reorder=1.0, reorder_spread=0.05))
    for i in range(50):
        net.send("a", "b", i)
    env.run()
    payloads = [e.payload for e in net.host("b").inbox.items]
    assert sorted(payloads) == list(range(50))   # nothing lost ...
    assert payloads != list(range(50))           # ... but FIFO is broken
    assert net.messages_reordered == 50
