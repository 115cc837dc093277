"""Transport fault handling: reconnect caps and socket-level partitions.

The reconnect-forever loop of PR 6 was fine when every peer eventually
came back on the same port; a multi-process deployment has peers that
die for good (kill -9) and return on a *different* port.  These tests
pin the new behaviour: a link parks as unreachable after a bounded
number of failed connects, drops its backlog visibly, revives on
``register_address``, and ``set_partition`` drops traffic in both
directions without touching connection state.  And a connection that
sends bytes which do not parse is closed and counted, alone.  A frame
shared by the names of a fan-out goes through every one of these per
name: what is dropped, counted or killed is that name's message only.
"""

from __future__ import annotations

import asyncio
import socket
import struct

from repro.net.actor import Actor
from repro.paxos.messages import Heartbeat, HeartbeatAck
from repro.runtime.asyncio_kernel import AsyncioKernel
from repro.runtime.transport import TcpTransport


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=20))


async def eventually(predicate, timeout=8.0, interval=0.01):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def dead_port() -> int:
    """A port that was just free -- nothing listens there."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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


def test_reconnect_cap_parks_link_and_drops_backlog():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel, unreachable_after=3)
        await transport.start()
        # A known address with nothing behind it: the permanently dead
        # peer.  Every connect attempt fails with ECONNREFUSED.
        transport.register_address("b", ("127.0.0.1", dead_port()))
        transport.send("a", "b", Heartbeat(nonce=0), 56)
        # Let the writer pull its first burst and block in connect, so
        # the next sends build a genuine backlog in the queue.
        await asyncio.sleep(0.02)
        for nonce in range(1, 6):
            transport.send("a", "b", Heartbeat(nonce=nonce), 56)
        assert await eventually(
            lambda: transport.unreachable_peers() == ["b"]
        )
        counters = transport.counters()
        assert counters["peers_parked"] == 1
        assert counters["peers_unreachable"] == 1
        # The queued backlog died with the peer (the in-flight burst the
        # writer already held is retried on revival instead).
        assert counters["dropped_unreachable"] >= 5
        # New sends to a parked peer drop immediately, without queueing.
        before = transport.counters()["dropped_unreachable"]
        transport.send("a", "b", Heartbeat(nonce=99), 56)
        assert transport.counters()["dropped_unreachable"] == before + 1
        assert transport.queue_depths().get("b", 0) == 0
        await transport.stop()

    run(main())


def test_register_address_revives_parked_link():
    async def main():
        kernel = AsyncioKernel()
        sender = TcpTransport(kernel, unreachable_after=2)
        await sender.start()
        sender.register_address("b", ("127.0.0.1", dead_port()))
        sender.send("a", "b", Heartbeat(nonce=0), 56)
        assert await eventually(lambda: sender.unreachable_peers() == ["b"])

        # The peer comes back -- in deployment terms, the supervisor
        # restarted the worker and re-broadcast its fresh port.
        receiver = TcpTransport(kernel)
        ponger = Ponger(kernel, receiver, "b")
        await receiver.start()
        ponger.start()
        sender.register_address("b", receiver.address)
        assert await eventually(lambda: sender.unreachable_peers() == [])
        sender.send("a", "b", Heartbeat(nonce=7), 56)
        assert await eventually(lambda: 7 in ponger.seen)
        ponger.stop()
        await sender.stop()
        await receiver.stop()

    run(main())


def test_partition_drops_outbound_and_inbound():
    async def main():
        kernel = AsyncioKernel()
        left = TcpTransport(kernel)
        right = TcpTransport(kernel)
        pinger = Pinger(kernel, left, "a")
        ponger = Ponger(kernel, right, "b")
        await left.start()
        await right.start()
        left.register_address("b", right.address)
        right.register_address("a", left.address)
        pinger.start()
        ponger.start()
        pinger.send("b", Heartbeat(nonce=1))
        assert await eventually(lambda: pinger.acks == [1])

        # Outbound: the sender's side of the cut drops before queueing.
        left.set_partition(["b"])
        assert left.partitioned_peers() == ["b"]
        pinger.send("b", Heartbeat(nonce=2))
        assert left.counters()["dropped_partition"] == 1
        await asyncio.sleep(0.1)
        assert 2 not in ponger.seen

        # Inbound: a one-sided cut on the receiver kills frames that
        # were already in flight when the cut landed.
        left.set_partition(["b"], blocked=False)
        right.set_partition(["a"])
        pinger.send("b", Heartbeat(nonce=3))
        assert await eventually(
            lambda: right.counters()["dropped_partition"] >= 1
        )
        assert 3 not in ponger.seen

        # Heal: traffic resumes on the same connections.
        right.set_partition(["a"], blocked=False)
        assert right.partitioned_peers() == []
        pinger.send("b", Heartbeat(nonce=4))
        assert await eventually(lambda: 4 in pinger.acks)
        pinger.stop()
        ponger.stop()
        await left.stop()
        await right.stop()

    run(main())


def test_discarded_inbound_frames_are_never_decoded(monkeypatch):
    # A frame from a partitioned peer, or to a crashed host, is dropped
    # on its envelope alone; the ``net.drop`` trace reads the type name
    # from the codec header.  The transport binds the codec functions
    # when it is built, so count before building it.
    from repro.obs.trace import Tracer
    from repro.runtime import codec

    decoded = []
    real_decode = codec.decode_with_context

    def counting_decode(frame):
        message, context = real_decode(frame)
        decoded.append(type(message).__name__)
        return message, context

    monkeypatch.setattr(codec, "decode_with_context", counting_decode)

    class _ListSink:
        def __init__(self):
            self.events = []

        def record(self, event):
            self.events.append(event)

        def close(self):
            pass

    async def main():
        sink = _ListSink()
        kernel = AsyncioKernel(
            tracer=Tracer(sinks=[sink], categories=frozenset({"net"}))
        )
        left = TcpTransport(kernel)
        right = TcpTransport(kernel)
        pinger = Pinger(kernel, left, "a")
        ponger = Ponger(kernel, right, "b")
        await left.start()
        await right.start()
        left.register_address("b", right.address)
        right.register_address("a", left.address)
        pinger.start()
        ponger.start()
        pinger.send("b", Heartbeat(nonce=1))
        assert await eventually(lambda: ponger.seen == [1])
        assert decoded.count("Heartbeat") == 1

        right.set_partition(["a"])
        for nonce in (2, 3):
            pinger.send("b", Heartbeat(nonce=nonce))
        assert await eventually(
            lambda: right.counters()["dropped_partition"] == 2
        )
        right.set_partition(["a"], blocked=False)
        ponger.crash()
        pinger.send("b", Heartbeat(nonce=4))
        assert await eventually(lambda: right.messages_dropped == 3)

        assert decoded.count("Heartbeat") == 1
        assert ponger.seen == [1]
        drops = [
            (e["type"], e["reason"])
            for e in sink.events if e["kind"] == "net.drop"
        ]
        assert drops == [
            ("Heartbeat", "partition"),
            ("Heartbeat", "partition"),
            ("Heartbeat", "dst_crashed"),
        ]
        pinger.stop()
        await left.stop()
        await right.stop()

    run(main())


def test_malformed_frames_close_their_connection_only():
    # Garbage on one connection, a 4 GiB length prefix on another: each
    # is counted, traced and closed; the listener stays up and the
    # well-formed peer next to them keeps delivering.
    import struct

    from repro.obs.schema import validate_event
    from repro.obs.trace import ListSink, Tracer
    from repro.runtime import codec, transport as transport_module

    async def closed_by_peer(reader):
        return await asyncio.wait_for(reader.read(), timeout=5) == b""

    async def main():
        sink = ListSink()
        kernel = AsyncioKernel(
            tracer=Tracer(sinks=[sink], categories=frozenset({"net"}))
        )
        left = TcpTransport(kernel)
        right = TcpTransport(kernel, node="n-right")
        pinger = Pinger(kernel, left, "a")
        ponger = Ponger(kernel, right, "b")
        await left.start()
        await right.start()
        left.register_address("b", right.address)
        right.register_address("a", left.address)
        pinger.start()
        ponger.start()
        pinger.send("b", Heartbeat(nonce=1))
        assert await eventually(lambda: pinger.acks == [1])

        envelope = (
            struct.pack("!d", 0.0)
            + struct.pack("!H", 1) + b"a" + struct.pack("!H", 1) + b"b"
        )
        good_body = codec.encode(Heartbeat(nonce=5))
        bad_frames = {
            "codec body": envelope + b"\xff" * 32,
            "truncated codec body": envelope + good_body[:9],
            "envelope too short": b"\x00" * 5,
            "name not utf-8": (
                struct.pack("!d", 0.0) + struct.pack("!H", 2) + b"\xff\xfe"
                + struct.pack("!H", 1) + b"b" + good_body
            ),
            "name list not utf-8": (
                struct.pack("!d", 0.0) + struct.pack("!H", 1) + b"a"
                + struct.pack("!H", 4) + b"b\x00\xff\xfe" + good_body
            ),
        }
        expected = 0
        for label, inner in bad_frames.items():
            reader, writer = await asyncio.open_connection(*right.address)
            # A well-formed frame first: it is delivered, the bad one
            # behind it on the same connection is what closes it.
            good = envelope + codec.encode(Heartbeat(nonce=100 + expected))
            writer.write(struct.pack("!I", len(good)) + good)
            writer.write(struct.pack("!I", len(inner)) + inner)
            await writer.drain()
            assert await closed_by_peer(reader), label
            writer.close()
            expected += 1
            assert right.counters()["dropped_malformed"] == expected, label
            assert 100 + expected - 1 in ponger.seen, label

        # An oversized length prefix is refused before anything is read.
        reader, writer = await asyncio.open_connection(*right.address)
        writer.write(struct.pack("!I", transport_module._MAX_FRAME_BYTES + 1))
        writer.write(b"\x00" * 64)
        await writer.drain()
        assert await closed_by_peer(reader)
        writer.close()
        expected += 1
        counters = right.counters()
        assert counters["dropped_malformed"] == expected
        assert counters["messages_dropped"] == expected

        # The largest accepted length is still just a length: the
        # connection waits for the bytes instead of being refused.
        reader, writer = await asyncio.open_connection(*right.address)
        writer.write(struct.pack("!I", transport_module._MAX_FRAME_BYTES))
        await writer.drain()
        await asyncio.sleep(0.05)
        assert right.counters()["dropped_malformed"] == expected
        writer.close()

        # The listener and the established link are unaffected.
        pinger.send("b", Heartbeat(nonce=2))
        assert await eventually(lambda: 2 in pinger.acks)
        assert left.counters()["dropped_malformed"] == 0

        drops = [e for e in sink.events if e["kind"] == "net.drop"]
        assert len(drops) == expected
        for event in drops:
            validate_event(event)
        assert {e["reason"] for e in drops} == {"malformed"}
        assert {e["dst"] for e in drops} == {"n-right"}
        assert all(e["src"].startswith("127.0.0.1:") for e in drops)
        assert "frame_len" in drops[-1]["error"]
        pinger.stop()
        ponger.stop()
        await left.stop()
        await right.stop()
        assert kernel.failures == []

    run(main())


def _frame(src: str, dst: str, message) -> bytes:
    import struct

    from repro.runtime import codec

    inner = (
        struct.pack("!d", 0.0)
        + struct.pack("!H", len(src)) + src.encode()
        + struct.pack("!H", len(dst)) + dst.encode()
        + codec.encode(message)
    )
    return struct.pack("!I", len(inner)) + inner


class _FakeSocket:
    """What an accepted connection's protocol needs of its transport."""

    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1

    def get_extra_info(self, name):
        return ("127.0.0.1", 9)


def test_frames_rechunked_at_every_byte_boundary_decode_the_same():
    # data_received sees whatever the kernel hands it: every split of a
    # burst into two chunks, and the burst one byte at a time, must
    # decode to the same messages in the same order.
    from repro.runtime.transport import _Inbound

    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        inbox = transport.add_host("b").inbox
        burst = b"".join(
            _frame("a", "b", Heartbeat(nonce=nonce)) for nonce in range(4)
        )

        def feed(chunks):
            seen = len(inbox)
            inbound = _Inbound(transport)
            inbound.connection_made(_FakeSocket())
            for chunk in chunks:
                inbound.data_received(chunk)
            assert not inbound._chunks
            inbound.connection_lost(None)
            return [e.payload.nonce for e in inbox.items[seen:]]

        assert feed([burst]) == [0, 1, 2, 3]
        for cut in range(1, len(burst)):
            assert feed([burst[:cut], burst[cut:]]) == [0, 1, 2, 3], cut
        assert feed([burst[i:i + 1] for i in range(len(burst))]) == [
            0, 1, 2, 3
        ]
        assert transport.messages_delivered == 4 * (len(burst) + 1)
        assert transport.messages_dropped == 0

    run(main())


def test_a_frame_spanning_three_chunks_is_joined_alone():
    # The middle chunk neither starts nor ends the frame; the last one
    # ends it and carries whole frames behind it, which are carved out
    # of that chunk where they lie.  Same with the tear inside a length
    # prefix that itself arrives in three pieces.
    from repro.runtime.transport import _Inbound

    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        inbox = transport.add_host("b").inbox
        frames = [_frame("a", "b", Heartbeat(nonce=n)) for n in range(4)]
        burst = b"".join(frames)
        first = len(frames[0])
        inbound = _Inbound(transport)
        inbound.connection_made(_FakeSocket())
        for cuts in ((5, first - 3), (1, 2), (first + 1, first + 3)):
            seen = len(inbox)
            low, high = cuts
            inbound.data_received(burst[:low])
            inbound.data_received(burst[low:high])
            assert inbound._chunks, cuts
            assert len(inbox) - seen == (1 if low > first else 0), cuts
            inbound.data_received(burst[high:])
            assert not inbound._chunks, cuts
            assert [e.payload.nonce for e in inbox.items[seen:]] == [
                0, 1, 2, 3
            ], cuts
        assert transport.messages_dropped == 0

    run(main())


def test_malformed_frame_mid_chunk_delivers_what_preceded_it():
    # One chunk: good, good, garbage, good.  The two frames before the
    # garbage are delivered, the garbage is counted once and closes this
    # connection, the frame behind it is never looked at.
    import struct

    from repro.runtime.transport import _Inbound

    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel)
        inbox = transport.add_host("b").inbox
        garbage = struct.pack("!I", 24) + b"\xff" * 24
        chunk = (
            _frame("a", "b", Heartbeat(nonce=1))
            + _frame("a", "b", Heartbeat(nonce=2))
            + garbage
            + _frame("a", "b", Heartbeat(nonce=3))
        )
        socket_ = _FakeSocket()
        inbound = _Inbound(transport)
        inbound.connection_made(socket_)
        bystander = _Inbound(transport)
        bystander.connection_made(_FakeSocket())
        inbound.data_received(chunk)
        assert [e.payload.nonce for e in inbox.items] == [1, 2]
        assert transport.counters()["dropped_malformed"] == 1
        assert transport.counters()["messages_dropped"] == 1
        assert socket_.closed == 1
        assert bystander.transport.closed == 0
        bystander.data_received(_frame("a", "b", Heartbeat(nonce=4)))
        assert [e.payload.nonce for e in inbox.items] == [1, 2, 4]

    run(main())


# -- direct dispatch: what a failing or crashing handler takes with it --------


class Sink(Actor):
    def __init__(self, env, network, name):
        super().__init__(env, network, name)
        self.seen = []

    def on_heartbeat(self, msg, src):
        self.seen.append(msg.nonce)


class Faulty(Sink):
    """Raises on nonce 13, crashes its own host on nonce 99."""

    def on_heartbeat(self, msg, src):
        super().on_heartbeat(msg, src)
        if msg.nonce == 13:
            raise struct.error("handler bug")   # looks like a bad frame
        if msg.nonce == 99:
            self.crash()


def test_a_handler_that_raises_kills_its_actor_not_the_connection():
    # The handler runs inside asyncio's data_received: its exception
    # must end up where a dead receive loop's does (kernel.failures,
    # on_failure), stop that actor only, and never reach asyncio -- not
    # as a fatal protocol error, and not as a malformed frame even when
    # it is of a type parsing raises.
    async def main():
        loop = asyncio.get_running_loop()
        loop_errors = []
        loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        kernel = AsyncioKernel()
        fired = []
        kernel.on_failure = fired.append
        sender = TcpTransport(kernel)
        receiver = TcpTransport(kernel)
        faulty = Faulty(kernel, receiver, "b")
        bystander = Sink(kernel, receiver, "c")
        await sender.start()
        await receiver.start()
        for name in ("b", "c"):
            sender.register_address(name, receiver.address)
        faulty.start()
        bystander.start()
        sender.send("a", "b", Heartbeat(nonce=1), 56)
        sender.send("a", "c", Heartbeat(nonce=1), 56)
        assert await eventually(
            lambda: faulty.seen == [1] and bystander.seen == [1]
        )
        # One write, one chunk: the failure is in the middle of it.
        for dst, nonce in (("b", 13), ("c", 2), ("b", 14), ("c", 3)):
            sender.send("a", dst, Heartbeat(nonce=nonce), 56)
        assert await eventually(lambda: bystander.seen == [1, 2, 3])
        assert await eventually(lambda: len(kernel.failures) == 1)
        assert isinstance(kernel.failures[0], struct.error)
        assert fired == kernel.failures
        assert not faulty.running and bystander.running
        # What arrives for the dead actor waits, as behind a dead loop.
        assert faulty.seen == [1, 13]
        assert [e.payload.nonce for e in faulty.host.inbox.items] == [14]
        # Same connection, still open, nothing counted against the peer.
        assert len(receiver._inbound) == 1
        assert sender._routes["b"].connects == 1
        assert receiver.counters()["dropped_malformed"] == 0
        assert receiver.messages_dropped == 0
        assert loop_errors == []
        bystander.stop()
        await sender.stop()
        await receiver.stop()

    run(main())


def test_a_handler_that_crashes_its_host_mid_chunk_drops_the_rest_for_it():
    from repro.obs.trace import ListSink, Tracer
    from repro.runtime.transport import _Inbound

    async def main():
        sink = ListSink()
        kernel = AsyncioKernel(
            tracer=Tracer(sinks=[sink], categories=frozenset({"net"}))
        )
        transport = TcpTransport(kernel)
        faulty = Faulty(kernel, transport, "b")
        bystander = Sink(kernel, transport, "c")
        faulty.start()
        bystander.start()
        for _ in range(3):
            await asyncio.sleep(0)      # both loops reach their get()
        inbound = _Inbound(transport)
        inbound.connection_made(_FakeSocket())
        inbound.data_received(b"".join(
            _frame("a", dst, Heartbeat(nonce=nonce))
            for dst, nonce in (
                ("b", 1), ("b", 99), ("c", 1), ("b", 2), ("b", 3), ("c", 2),
            )
        ))
        assert faulty.seen == [1, 99]
        assert bystander.seen == [1, 2]
        assert faulty.crashed and not faulty.running
        assert transport.messages_delivered == 4
        assert transport.messages_dropped == 2
        drops = [
            (e["dst"], e["reason"])
            for e in sink.events if e["kind"] == "net.drop"
        ]
        assert drops == [("b", "dst_crashed")] * 2
        assert len(faulty.host.inbox) == 0
        # Recovery starts a fresh loop on a fresh inbox.
        faulty.recover()
        for _ in range(3):
            await asyncio.sleep(0)
        inbound.data_received(_frame("a", "b", Heartbeat(nonce=4)))
        assert faulty.seen == [1, 99, 4]
        assert not kernel.failures
        faulty.stop()
        bystander.stop()

    run(main())


# -- a frame shared by the names of a fan-out ---------------------------------


def test_a_shared_frame_is_checked_and_served_name_by_name(monkeypatch):
    # One frame for five names: a crashed host and an unknown one lose
    # their message (counted and traced for them alone), a handler that
    # raises kills its actor only, the names behind it are still served,
    # and the body is decoded once.  From a partitioned source every
    # name is dropped and counted, and nothing is decoded.
    from repro.obs.trace import ListSink, Tracer
    from repro.runtime import codec
    from repro.runtime.transport import _Inbound

    decoded = []
    real_decode = codec.decode_with_context

    def counting_decode(frame):
        decoded.append(1)
        return real_decode(frame)

    monkeypatch.setattr(codec, "decode_with_context", counting_decode)

    async def main():
        sink = ListSink()
        kernel = AsyncioKernel(
            tracer=Tracer(sinks=[sink], categories=frozenset({"net"}))
        )
        transport = TcpTransport(kernel)
        first = Sink(kernel, transport, "b")
        crashed = Sink(kernel, transport, "c")
        faulty = Faulty(kernel, transport, "d")
        last = Sink(kernel, transport, "e")
        for actor in (first, crashed, faulty, last):
            actor.start()
        crashed.crash()
        for _ in range(3):
            await asyncio.sleep(0)      # the loops reach their get()
        names = "\0".join(["b", "c", "nobody", "d", "e"])
        inbound = _Inbound(transport)
        inbound.connection_made(_FakeSocket())
        inbound.data_received(_frame("a", names, Heartbeat(nonce=13)))
        assert first.seen == faulty.seen == last.seen == [13]
        assert crashed.seen == []
        assert len(decoded) == 1
        assert transport.messages_delivered == 3
        assert transport.messages_dropped == 2

        def drops():
            return [
                (e["dst"], e["type"], e["reason"])
                for e in sink.events if e["kind"] == "net.drop"
            ]

        assert drops() == [
            ("c", "Heartbeat", "dst_crashed"),
            ("nobody", "Heartbeat", "dst_crashed"),
        ]
        assert [
            e["dst"] for e in sink.events if e["kind"] == "net.deliver"
        ] == ["b", "d", "e"]
        for _ in range(3):
            await asyncio.sleep(0)      # the aborted actor's failure lands
        assert len(kernel.failures) == 1
        assert not faulty.running and first.running and last.running
        assert inbound.transport.closed == 0

        transport.set_partition(["a"])
        inbound.data_received(_frame("a", "b\0c\0e", Heartbeat(nonce=14)))
        assert len(decoded) == 1
        assert transport.counters()["dropped_partition"] == 3
        assert transport.messages_dropped == 5
        assert drops()[2:] == [
            (name, "Heartbeat", "partition") for name in "bce"
        ]
        assert first.seen == last.seen == [13]
        first.stop()
        last.stop()

    run(main())


def test_a_fan_out_leaves_out_the_names_it_may_not_send_to():
    # Outbound checks are per name: a partitioned name and one over its
    # queue bound are dropped and counted, the others share the frame.
    async def main():
        kernel = AsyncioKernel()
        sender = TcpTransport(kernel, send_queue_frames=2)
        receiver = TcpTransport(kernel)
        sinks = {name: Sink(kernel, receiver, name) for name in "bcde"}
        await sender.start()
        await receiver.start()
        for name, sink in sinks.items():
            sender.register_address(name, receiver.address)
            sink.start()
        sender.send("a", "b", Heartbeat(nonce=0), 56)
        assert await eventually(lambda: sinks["b"].seen == [0])
        conn = sender._routes["b"]
        conn.pause_writing()
        sender.set_partition(["c"])
        for nonce in (1, 2):
            sender.send("a", "d", Heartbeat(nonce=nonce), 56)
        before = sender.counters()
        sender.broadcast("a", list("bcde"), Heartbeat(nonce=3), 56)
        after = sender.counters()
        assert conn.pending[-1][0] == ("b", "e")
        assert sender.queue_depths() == {"b": 1, "d": 2, "e": 1}
        assert after["messages_sent"] - before["messages_sent"] == 4
        assert after["dropped_partition"] - before["dropped_partition"] == 1
        assert (
            after["dropped_backpressure"] - before["dropped_backpressure"]
        ) == 1
        assert after["messages_dropped"] - before["messages_dropped"] == 2
        conn.resume_writing()
        assert await eventually(
            lambda: sinks["b"].seen == [0, 3] and sinks["e"].seen == [3]
        )
        assert sinks["d"].seen == [1, 2]
        assert sinks["c"].seen == []
        assert sender.counters()["frames_coalesced"] == 5
        for sink in sinks.values():
            sink.stop()
        await sender.stop()
        await receiver.stop()

    run(main())


def test_parking_drops_a_shared_frame_once_per_name():
    async def main():
        kernel = AsyncioKernel()
        transport = TcpTransport(kernel, unreachable_after=2)
        await transport.start()
        address = ("127.0.0.1", dead_port())
        for name in "bcd":
            transport.register_address(name, address)
        transport.broadcast("a", list("bcd"), Heartbeat(nonce=0), 56)
        transport.send("a", "c", Heartbeat(nonce=1), 56)
        assert transport.queue_depths() == {"b": 1, "c": 2, "d": 1}
        assert await eventually(
            lambda: transport.unreachable_peers() == ["b", "c", "d"]
        )
        counters = transport.counters()
        assert counters["peers_parked"] == 3
        assert counters["dropped_unreachable"] == 4
        assert counters["messages_dropped"] == 4
        assert transport.queue_depths() == {"b": 0, "c": 0, "d": 0}
        await transport.stop()

    run(main())
