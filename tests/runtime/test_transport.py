"""TCP transport: real sockets under the unchanged Actor base class."""

from __future__ import annotations

import asyncio
import socket

from repro.net.actor import Actor
from repro.paxos.messages import Heartbeat, HeartbeatAck
from repro.runtime.asyncio_kernel import AsyncioKernel
from repro.runtime.transport import TcpTransport

from .test_transport_faults import _FakeSocket, _feed, _frame


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=15))


async def eventually(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)   # the poll of a wait on the effect
    return predicate()


class Ponger(Actor):
    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.seen = []

    def on_heartbeat(self, msg, src):
        self.seen.append(msg.nonce)
        self.send(src, HeartbeatAck(nonce=msg.nonce))


class Pinger(Actor):
    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.acks = []

    def on_heartbeat_ack(self, msg, src):
        self.acks.append(msg.nonce)


def test_actor_round_trip_over_tcp():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        ponger = Ponger(kernel, transport, "b")
        pinger = Pinger(kernel, transport, "a")
        await transport.start()
        ponger.start()
        pinger.start()
        for nonce in range(3):
            pinger.send("b", Heartbeat(nonce=nonce))
        assert await eventually(lambda: len(pinger.acks) == 3)
        assert sorted(ponger.seen) == [0, 1, 2]
        assert sorted(pinger.acks) == [0, 1, 2]
        assert transport.messages_delivered == 6
        assert transport.messages_sent == 6
        assert not kernel.failures
        pinger.stop()
        ponger.stop()
        await transport.stop()

    run(main())


def test_send_before_listener_up_is_delivered_in_order_exactly_once():
    # Frames for a name with no address yet are held; frames for a known
    # address nothing listens on yet wait out the connect backoff.  Both
    # arrive once the listener binds: in order, exactly once.
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        ponger = Ponger(kernel, transport, "b")
        ponger.start()
        for nonce in range(3):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        await asyncio.sleep(0.05)       # a wait for an absence: all stay held
        assert transport.queue_depths() == {"b": 3}
        await transport.start()
        assert await eventually(lambda: len(ponger.seen) == 3)
        assert transport._routes["b"].connects >= 1

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        late = TcpTransport(kernel, bind_port=port)
        sink = Sink(kernel, late, "c")
        sink.start()
        transport.register_address("c", ("127.0.0.1", port))
        for nonce in range(3):
            transport.send("a", "c", Heartbeat(nonce=nonce), 56)
        # The connection spins on backoff until the listener is up.
        await eventually(lambda: transport.reconnect_attempts >= 1)
        assert transport.reconnect_attempts >= 1
        await late.start()
        assert await eventually(lambda: len(sink.seen) == 3)
        await asyncio.sleep(0.05)       # a wait for an absence: no duplicate
        assert ponger.seen == [0, 1, 2]
        assert sink.seen == [0, 1, 2]
        assert transport.messages_dropped == 0
        ponger.stop()
        sink.stop()
        await transport.stop()
        await late.stop()

    run(main())


def test_a_fan_out_held_for_names_without_an_address_follows_each_name():
    # A fan-out queued while no destination has an address is one shared
    # frame on the holding connection.  The names then turn out to live
    # behind two listeners: each takes its own copy along as it is
    # registered, between the unicasts sent before and after it.
    async def main():
        kernel = AsyncioKernel()
        sender = TcpTransport(kernel)
        left = TcpTransport(kernel)
        right = TcpTransport(kernel)
        homes = {"r0": left, "r1": left, "r2": left, "r3": right, "r4": right}
        sinks = [Sink(kernel, home, name) for name, home in homes.items()]
        await left.start()
        await right.start()
        for sink in sinks:
            sink.start()
        names = list(homes)
        for name in names:
            sender.send("a", name, Heartbeat(nonce=0), 56)
        sender.broadcast("a", names, Heartbeat(nonce=1), 56)
        for name in names:
            sender.send("a", name, Heartbeat(nonce=2), 56)
        holding = sender._routes["r0"]
        assert holding.address is None
        assert [entry[0] for entry in holding.pending].count(tuple(names)) == 1
        assert len(holding.pending) == 11
        assert sender.queue_depths() == dict.fromkeys(names, 3)

        sender.register_address("r0", left.address)
        moved = sender._routes["r0"]
        assert moved.address == left.address
        assert moved.depths == {"r0": 3}
        assert [entry[0] for entry in moved.pending] == [("r0",)] * 3
        assert holding.depths == dict.fromkeys(names[1:], 3)
        assert tuple(names[1:]) in [entry[0] for entry in holding.pending]
        for name in names[1:]:
            sender.register_address(name, homes[name].address)
        assert holding.pending == [] and holding.depths == {}
        assert await eventually(
            lambda: all(sink.seen == [0, 1, 2] for sink in sinks)
        )
        await asyncio.sleep(0.05)       # a wait for an absence: no duplicate
        assert all(sink.seen == [0, 1, 2] for sink in sinks)
        assert len(sender._connections) == 3
        assert sender.messages_dropped == 0
        assert left.messages_delivered == 9 and right.messages_delivered == 6
        assert sender.counters()["frames_coalesced"] == 15
        for sink in sinks:
            sink.stop()
        await sender.stop()
        await left.stop()
        await right.stop()

    run(main())


def test_crashed_receiver_drops_frames():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        ponger = Ponger(kernel, transport, "b")
        await transport.start()
        ponger.start()
        ponger.crash()
        transport.send("a", "b", Heartbeat(nonce=1), 56)
        assert await eventually(lambda: transport.messages_dropped == 1)
        assert transport.messages_delivered == 0
        await transport.stop()

    run(main())


def test_backpressure_queue_full_drops():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel, send_queue_frames=4)
        transport.add_host("b")
        # No listener: the link can never connect, so the queue fills.
        for nonce in range(10):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        assert transport.messages_dropped == 6
        assert transport.messages_sent == 10
        await transport.stop()

    run(main())


class Sink(Actor):
    """Receiver that never replies (keeps delivery counts one-sided)."""

    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.seen = []

    def on_heartbeat(self, msg, src):
        self.seen.append(msg.nonce)


def test_writer_coalescing_counters_and_metrics():
    # A synchronous burst of sends is one loop turn, so one flush, with
    # the coalescing counters and the bytes-per-write histogram fed to
    # the registry.
    async def main():
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        kernel = AsyncioKernel(tracer=None, metrics=registry)
        transport = TcpTransport(kernel, node="n1")
        sink = Sink(kernel, transport, "b")
        await transport.start()
        sink.start()
        for nonce in range(50):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        assert await eventually(lambda: len(sink.seen) == 50)
        counters = transport.counters()
        assert counters["frames_coalesced"] == 50
        assert counters["writer_flushes"] == 1
        assert counters["bytes_written"] == transport.bytes_delivered
        totals = {
            e["name"]: e["total"]
            for e in registry.dump()["counters"]
        }
        assert totals["transport_frames_coalesced"] == 50
        assert totals["transport_writer_flushes"] == counters["writer_flushes"]
        histograms = {
            name: series
            for (_actor, name), series in registry.histograms().items()
        }
        assert "bytes_per_write" in histograms
        sink.stop()
        await transport.stop()

    run(main())


def test_deferred_callables_run_ahead_of_the_turns_one_write():
    # defer(fn): fn runs once, in the turn's end-of-turn callback, and
    # what it sends leaves in the same write as what was sent before it
    # -- also to a second address -- with no loop turn of its own.  One
    # that raises fails the kernel, not the flush.
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        remote = TcpTransport(kernel)
        sink = Sink(kernel, transport, "b")
        far = Sink(kernel, remote, "c")
        await transport.start()
        transport.register_address("c", await remote.start())
        sink.start()
        far.start()
        ran = []

        def late_sender():
            ran.append("sender")
            transport.send("a", "b", Heartbeat(nonce=2), 56)
            transport.send("a", "c", Heartbeat(nonce=3), 56)

        def broken():
            ran.append("broken")
            raise RuntimeError("deferred and broken")

        transport.send("a", "b", Heartbeat(nonce=1), 56)
        transport.defer(broken)
        transport.defer(late_sender)
        assert ran == [] and transport.writer_flushes == 0
        await asyncio.sleep(0)          # one turn: callables, then writes
        assert ran == ["broken", "sender"]
        assert [repr(failure) for failure in kernel.failures] == [
            "RuntimeError('deferred and broken')"
        ]
        # (no socket yet: the first flush of each connection dials)
        assert await eventually(lambda: len(sink.seen) == 2 and far.seen)
        assert sink.seen == [1, 2] and far.seen == [3]
        counters = transport.counters()
        assert counters["writer_flushes"] == 2      # one per connection
        assert counters["frames_coalesced"] == 3
        # With the sockets up, a deferred send is one write in one turn.
        transport.defer(lambda: transport.send("a", "b", Heartbeat(nonce=4), 56))
        await asyncio.sleep(0)
        assert transport.writer_flushes == 3
        assert ran == ["broken", "sender"]          # each ran once
        assert await eventually(lambda: sink.seen == [1, 2, 4])
        sink.stop()
        far.stop()
        await transport.stop()
        await remote.stop()

    run(main())


def test_frames_queued_across_a_reconnect_arrive_in_order_exactly_once():
    # The connection dies with frames pending: they wait for the next
    # connection and leave on it whole -- every frame delivered exactly
    # once, in order.
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        sink = Sink(kernel, transport, "b")
        await transport.start()
        sink.start()
        for nonce in range(5):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        assert await eventually(lambda: len(sink.seen) == 5)
        conn = transport._routes["b"]
        assert conn.connects == 1
        # Kill the socket under the connection, then queue a burst in
        # the same loop turn: the flush finds a dying socket and must
        # hand it nothing.
        conn.transport.abort()
        for nonce in range(5, 25):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        assert transport.queue_depths()["b"] == 20
        assert await eventually(lambda: len(sink.seen) == 25)
        await asyncio.sleep(0.05)       # a wait for an absence: no duplicate
        assert sink.seen == list(range(25))
        assert conn.connects >= 2
        assert transport.messages_delivered == 25
        assert transport.queue_depths()["b"] == 0
        sink.stop()
        await transport.stop()

    run(main())


def test_drop_counters_feed_the_metrics_registry():
    async def main():
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        kernel = AsyncioKernel(tracer=None, metrics=registry)
        transport = TcpTransport(kernel, send_queue_frames=4, node="n1")

        # Crashed *sender*: the frame is dropped at the source.
        transport.add_host("a").crash()
        transport.send("a", "b", Heartbeat(nonce=1), 56)
        assert transport.dropped_on_crash == 1

        # No address for "c": the link can never connect, the bounded
        # queue fills, further sends drop under backpressure.
        for nonce in range(10):
            transport.send("x", "c", Heartbeat(nonce=nonce), 56)
        assert transport.dropped_backpressure == 6
        assert transport.peak_send_queue == 4
        assert transport.queue_depths()["c"] == 4

        counters = transport.counters()
        assert counters["dropped_on_crash"] == 1
        assert counters["dropped_backpressure"] == 6
        assert counters["peak_send_queue"] == 4

        # The same numbers are scrapeable from the registry under the
        # node's actor name.
        dump = registry.dump()
        by_name = {
            (e["actor"], e["name"]): e["total"] for e in dump["counters"]
        }
        assert by_name[("n1", "transport_dropped_on_crash")] == 1
        assert by_name[("n1", "transport_dropped_backpressure")] == 6
        gauge = dump["gauges"][0]
        assert gauge["name"] == "transport_send_queue_depth"
        assert gauge["peak"] == 4
        await transport.stop()

    run(main())


def test_reconnect_attempts_are_counted():
    async def main():
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        kernel = AsyncioKernel(tracer=None, metrics=registry)
        transport = TcpTransport(kernel, node="n1")
        # Point "b" at a port that was just closed: every connection
        # attempt is refused and counted.
        probe = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        transport.register_address("b", ("127.0.0.1", port))
        transport.send("a", "b", Heartbeat(nonce=1), 56)

        await eventually(lambda: transport.reconnect_attempts >= 2)
        assert transport.reconnect_attempts >= 2
        dump = registry.dump()
        totals = {e["name"]: e["total"] for e in dump["counters"]}
        assert totals["transport_reconnects"] >= 2
        await transport.stop()

    run(main())


def test_queue_wait_traced_and_measured_for_msg_id_payloads():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.paxos.messages import Propose
    from repro.paxos.types import AppValue

    class _ListSink:
        def __init__(self):
            self.events = []

        def record(self, event):
            self.events.append(event)

        def close(self):
            pass

    class Receiver(Actor):
        def __init__(self, env, network, name):
            super().__init__(env, network, name)
            self.tokens = []

        def on_propose(self, msg, src):
            self.tokens.append(msg.token)

    async def main():
        sink = _ListSink()
        tracer = Tracer(
            sinks=[sink], categories=frozenset({"transport"}), node="n1"
        )
        registry = MetricsRegistry()
        kernel = AsyncioKernel(tracer=tracer, metrics=registry)
        transport = TcpTransport(kernel, node="n1")
        receiver = Receiver(kernel, transport, "b")
        await transport.start()
        receiver.start()
        token = AppValue(payload="x", size=16, msg_id=7)
        transport.send("a", "b", Propose(stream="S1", token=token), 64)
        # Heartbeats carry no msg_id: dequeued silently, never traced.
        transport.send("a", "b", Heartbeat(nonce=1), 56)
        assert await eventually(lambda: len(receiver.tokens) == 1)
        waits = [
            e for e in sink.events if e["kind"] == "transport.queue_wait"
        ]
        assert len(waits) == 1
        assert waits[0]["msg_id"] == 7
        assert waits[0]["dst"] == "b"
        assert waits[0]["wait"] >= 0.0
        dump = registry.dump()
        (hist,) = [
            h for h in dump["histograms"] if h["name"] == "queue_wait_ms"
        ]
        assert hist["actor"] == "n1"
        assert hist["n"] == 1
        await transport.stop()

    run(main())


def test_no_queue_wait_tracking_untraced():
    async def main():
        kernel = AsyncioKernel()            # no tracer, no metrics
        transport = TcpTransport(kernel)
        assert transport._track_queue_wait is False
        ponger = Ponger(kernel, transport, "b")
        pinger = Pinger(kernel, transport, "a")
        await transport.start()
        ponger.start()
        pinger.start()
        pinger.send("b", Heartbeat(nonce=1))
        assert await eventually(lambda: len(pinger.acks) == 1)
        await transport.stop()

    run(main())


def test_only_msg_id_frames_carry_a_trace_context():
    # A receiver reads the trace context of a frame with a msg_id only
    # (net.context, transport.queue_wait): with a node-stamped tracer
    # installed the Propose carries {origin, ts, msg_id}, and the frames
    # of the ring and the failure detector go out as version 1,
    # context-free.
    from repro.obs.trace import ListSink, Tracer
    from repro.paxos.messages import Decision, Propose, RingAccept
    from repro.paxos.types import AppValue, Batch
    from repro.runtime import codec

    async def main():
        kernel = AsyncioKernel(tracer=Tracer(sinks=[ListSink()], node="n1"))
        transport = TcpTransport(kernel, node="n1")
        value = AppValue(payload=b"x", size=16, msg_id=7, sender="c")
        batch = Batch((value,))
        messages = [
            Propose(stream="S1", token=value),
            Propose(stream="S1", token=Batch((value, AppValue(
                payload=b"y", size=16, msg_id=8, sender="c",
            )))),
            RingAccept("S1", 3, 0, batch, accepted_by=1),
            Decision("S1", 0, batch),
            Heartbeat(nonce=1),
        ]
        for message in messages:
            transport.send("a", "b", message, 64)
        # "b" has no address: its frames wait, unwritten, in order.
        assert _pending_frames(transport, "b") == [
            ("Propose", codec.CONTEXT_WIRE_VERSION,
             {"origin": "n1", "msg_id": 7}),
            ("Propose", codec.CONTEXT_WIRE_VERSION,
             {"origin": "n1", "msg_id": 7}),
            ("RingAccept", codec.WIRE_VERSION, None),
            ("Decision", codec.WIRE_VERSION, None),
            ("Heartbeat", codec.WIRE_VERSION, None),
        ]
        await transport.stop()

    run(main())


def _pending_frames(transport, dst):
    """(type, codec wire version, trace context less its ts) of every
    frame waiting for ``dst``, in order."""
    from repro.runtime import codec
    from repro.runtime.transport import _LEN, _open_envelope

    decoded = []
    for _names, _at, _msg_id, frame in transport._routes[dst].pending:
        inner = memoryview(frame)[_LEN.size:]
        sent_at, _src, _dst, pos = _open_envelope(inner)
        body = inner[pos:]
        payload, context = codec.decode_with_context(body)
        if context is not None:
            # The sender's clock at the send, as on the envelope.
            assert context.pop("ts") == sent_at
        decoded.append((type(payload).__name__, body[0], context))
    return decoded


def test_a_tracer_that_stamps_no_node_sends_version_1_frames():
    # One tracer for a whole process (an in-process cluster's) is one
    # timeline no trace-merge aligns: no frame carries a trace context,
    # no net.context or transport.queue_wait is traced -- and the
    # queue_wait_ms histogram stays, since a registry listens.
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import ALL_CATEGORIES, ListSink, Tracer
    from repro.paxos.messages import Propose
    from repro.paxos.types import AppValue
    from repro.runtime import codec

    class Receiver(Actor):
        def __init__(self, env, network, name):
            super().__init__(env, network, name)
            self.tokens = []

        def on_propose(self, msg, src):
            self.tokens.append(msg.token)

    async def main():
        sink, registry = ListSink(), MetricsRegistry()
        tracer = Tracer(sinks=[sink], categories=ALL_CATEGORIES)
        kernel = AsyncioKernel(tracer=tracer, metrics=registry)
        transport = TcpTransport(kernel, node="n1")
        value = AppValue(payload=b"x", size=16, msg_id=7, sender="c")
        transport.send("a", "b", Propose(stream="S1", token=value), 64)
        assert _pending_frames(transport, "b") == [
            ("Propose", codec.WIRE_VERSION, None),
        ]
        receiver = Receiver(kernel, transport, "b")
        await transport.start()
        receiver.start()
        assert await eventually(lambda: len(receiver.tokens) == 1)
        kinds = {event["kind"] for event in sink.events}
        assert "net.deliver" in kinds       # the tracer does listen
        assert not kinds & {"net.context", "transport.queue_wait"}
        (hist,) = [
            h for h in registry.dump()["histograms"]
            if h["name"] == "queue_wait_ms"
        ]
        assert hist["n"] == 1
        await transport.stop()

    run(main())


def test_fan_out_behind_one_address_is_one_encode_and_one_flush(monkeypatch):
    # send_all to five hosts of one process: the codec runs once on
    # each side, one frame naming all five leaves in one write on the
    # shared connection, and each destination sees its own messages in
    # order.  The counters stay per destination name.
    from repro.runtime import codec

    encodes = []
    decodes = []
    real_encode_into = codec.encode_into
    real_decode = codec.decode_with_context

    def counting_encode_into(message, out, trace_context=None):
        encodes.append(type(message).__name__)
        return real_encode_into(message, out, trace_context)

    def counting_decode(frame):
        decodes.append(len(frame))
        return real_decode(frame)

    monkeypatch.setattr(codec, "encode_into", counting_encode_into)
    monkeypatch.setattr(codec, "decode_with_context", counting_decode)

    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        sinks = [Sink(kernel, transport, f"r{i}") for i in range(5)]
        pinger = Pinger(kernel, transport, "a")
        await transport.start()
        for sink in sinks:
            sink.start()
        names = [sink.name for sink in sinks]
        pinger.send_all(names, Heartbeat(nonce=0))   # dials the connection
        assert await eventually(lambda: all(s.seen == [0] for s in sinks))
        assert len(transport._connections) == 1
        before = transport.counters()
        del encodes[:], decodes[:]
        pinger.send_all(names, Heartbeat(nonce=1))
        assert encodes == ["Heartbeat"]
        assert await eventually(lambda: all(s.seen == [0, 1] for s in sinks))
        after = transport.counters()
        assert after["frames_coalesced"] - before["frames_coalesced"] == 5
        assert after["writer_flushes"] - before["writer_flushes"] == 1
        assert after["messages_sent"] - before["messages_sent"] == 5
        assert after["messages_delivered"] - before["messages_delivered"] == 5
        # One frame on the wire: a length prefix, one envelope naming
        # the five, one codec frame -- decoded once for five deliveries.
        body = len(codec.encode(Heartbeat(nonce=1)))
        envelope = 4 + 8 + (2 + len("a")) + (2 + len("\0".join(names)))
        assert decodes == [body]
        assert after["bytes_written"] - before["bytes_written"] == (
            envelope + body
        )
        assert after["bytes_delivered"] - before["bytes_delivered"] == (
            envelope + body
        )
        # Two fan-outs in one loop turn are still one write.
        pinger.send_all(names, Heartbeat(nonce=2))
        pinger.send_all(names, Heartbeat(nonce=3))
        assert await eventually(
            lambda: all(s.seen == [0, 1, 2, 3] for s in sinks)
        )
        assert transport.counters()["writer_flushes"] == (
            after["writer_flushes"] + 1
        )
        for sink in sinks:
            sink.stop()
        await transport.stop()

    run(main())


def test_paused_writer_bounds_the_backlog():
    # pause_writing (a full socket buffer) stops flushes; the backlog
    # grows to the per-name bound, then drops and counts; resume_writing
    # sends what was kept, in order.
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel, send_queue_frames=8)
        sink = Sink(kernel, transport, "b")
        other = Sink(kernel, transport, "c")
        await transport.start()
        sink.start()
        other.start()
        transport.send("a", "b", Heartbeat(nonce=0), 56)
        assert await eventually(lambda: sink.seen == [0])
        conn = transport._routes["b"]
        conn.pause_writing()
        for nonce in range(1, 12):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        # The bound is per destination name, not per connection.
        transport.send("a", "c", Heartbeat(nonce=0), 56)
        # A wait for an absence: nothing leaves while writing is paused.
        await asyncio.sleep(0.05)
        assert sink.seen == [0] and other.seen == []
        assert transport.queue_depths() == {"b": 8, "c": 1}
        assert transport.dropped_backpressure == 3
        assert transport.peak_send_queue == 8
        conn.resume_writing()
        assert await eventually(lambda: len(sink.seen) == 9)
        assert sink.seen == list(range(9))
        assert await eventually(lambda: other.seen == [0])
        assert transport.queue_depths() == {"b": 0, "c": 0}
        sink.stop()
        other.stop()
        await transport.stop()

    run(main())


def test_stop_closes_the_connections_it_accepted():
    # The receiver stops while the sender's connection is still open:
    # stop() must not wait for the remote end to hang up first.
    async def main():
        kernel = AsyncioKernel()
        sender = TcpTransport(kernel)
        receiver = TcpTransport(kernel)
        sink = Sink(kernel, receiver, "b")
        await sender.start()
        await receiver.start()
        sink.start()
        sender.register_address("b", receiver.address)
        sender.send("a", "b", Heartbeat(nonce=1), 56)
        assert await eventually(lambda: sink.seen == [1])
        conn = sender._routes["b"]
        assert conn.transport is not None
        assert len(receiver._inbound) == 1
        sink.stop()
        await asyncio.wait_for(receiver.stop(), timeout=2)
        assert await eventually(lambda: not receiver._inbound)
        # The sender saw the hang-up; it did not cause it.
        assert await eventually(lambda: conn.transport is None)
        await sender.stop()

    run(main())


# -- direct dispatch: frames handled in the receive callback ------------------

def _inbound(transport):
    from repro.runtime.transport import _Inbound

    inbound = _Inbound(transport)
    inbound.connection_made(_FakeSocket())
    return inbound


async def _turns(count=3):
    for _ in range(count):
        await asyncio.sleep(0)


def test_a_running_actor_handles_frames_inside_the_receive_callback():
    # With its loop parked on an empty inbox the actor's handler runs
    # before buffer_updated returns: nothing is queued, no loop turn is
    # waited for -- with a dispatch tracer and a registry installed as
    # much as with neither.
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import ALL_CATEGORIES, ListSink, Tracer

    async def main(observed):
        sink = ListSink()
        observers = {"tracer": None, "metrics": None}
        if observed:
            observers = {
                "tracer": Tracer(sinks=[sink], categories=ALL_CATEGORIES),
                "metrics": MetricsRegistry(),
            }
        kernel = AsyncioKernel(**observers)
        transport = TcpTransport(kernel)
        sink_actor = Sink(kernel, transport, "b")
        sink_actor.start()
        await _turns()          # the loop reaches its first get()
        inbound = _inbound(transport)
        _feed(
            inbound,
            _frame("a", "b", Heartbeat(nonce=1))
            + _frame("a", "b", Heartbeat(nonce=2))
        )
        assert sink_actor.seen == [1, 2]
        assert len(sink_actor.host.inbox) == 0
        assert transport.messages_delivered == 2
        if observed:
            kinds = [e["kind"] for e in sink.events]
            assert kinds == ["net.deliver", "actor.dispatch"] * 2
            assert [e["inbox_depth"] for e in sink.events
                    if e["kind"] == "net.deliver"] == [0, 0]
            # The live inbox is not a queue: its depth is not exported.
            gauges = {g["name"] for g in kernel.metrics.dump()["gauges"]}
            assert "inbox_depth" not in gauges
        sink_actor.stop()

    run(main(observed=False))
    run(main(observed=True))


def test_frames_queued_before_start_are_handled_before_later_ones():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        sink = Sink(kernel, transport, "b")
        inbound = _inbound(transport)
        _feed(
            inbound,
            _frame("a", "b", Heartbeat(nonce=1))
            + _frame("a", "b", Heartbeat(nonce=2))
        )
        assert sink.seen == []
        assert [e.payload.nonce for e in sink.host.inbox.items] == [1, 2]
        sink.start()
        # Arrives while the loop still drains: must queue behind 1 and 2.
        _feed(inbound, _frame("a", "b", Heartbeat(nonce=3)))
        assert sink.seen == []
        assert await eventually(lambda: len(sink.seen) == 3)
        assert sink.seen == [1, 2, 3]
        await _turns()          # the loop parks again
        _feed(inbound, _frame("a", "b", Heartbeat(nonce=4)))
        assert sink.seen == [1, 2, 3, 4]
        assert len(sink.host.inbox) == 0
        sink.stop()

    run(main())


def test_a_stopped_actor_queues_and_a_restart_drains_in_order():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        sink = Sink(kernel, transport, "b")
        sink.start()
        await _turns()
        inbound = _inbound(transport)
        _feed(inbound, _frame("a", "b", Heartbeat(nonce=1)))
        assert sink.seen == [1]
        sink.stop()             # stopped, not crashed: the host is up
        _feed(
            inbound,
            _frame("a", "b", Heartbeat(nonce=2))
            + _frame("a", "b", Heartbeat(nonce=3))
        )
        await _turns()
        assert sink.seen == [1]
        assert [e.payload.nonce for e in sink.host.inbox.items] == [2, 3]
        assert transport.messages_dropped == 0
        sink.start()
        _feed(inbound, _frame("a", "b", Heartbeat(nonce=4)))
        assert await eventually(lambda: len(sink.seen) == 4)
        assert sink.seen == [1, 2, 3, 4]
        assert not kernel.failures
        sink.stop()

    run(main())
