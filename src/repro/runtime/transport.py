"""Length-prefixed TCP transport for the live runtime.

Implements the :class:`repro.runtime.kernel.Transport` interface over
real localhost sockets.  Hosts are in-process (their actors run on the
same :class:`~repro.runtime.asyncio_kernel.AsyncioKernel`), but every
``send`` is serialized with the wire codec and travels through the OS
TCP stack -- there is no in-process shortcut, so the live smoke test
exercises real framing, flow control and socket teardown.

Wire framing (outer; the codec frame has its own versioned header)::

    [u32 frame_len] [f64 sent_at] [u16 src_len][src] [u16 dst_len][dst]
    [codec frame]

``frame_len`` counts everything after itself.  Bytes that do not parse
-- a ``frame_len`` above ``_MAX_FRAME_BYTES``, a damaged envelope, a
codec frame the codec rejects -- are the sender's fault, not the
listener's: the frame is counted (``dropped_malformed``), traced
(``net.drop``, ``reason="malformed"``) and *that connection* is closed,
since nothing after a bad length prefix can be re-synchronised.  Every
other connection, and the listener, carry on.

Per-peer connection management: one :class:`_PeerLink` per destination
name, with

* a bounded send queue -- ``send`` is fire-and-forget; when the queue
  is full the message is *dropped* (and counted), exactly like a
  saturated kernel socket buffer under a fire-and-forget datagram
  model.  Loss is repaired by the protocol's retransmission, never by
  the transport;
* a writer task that *coalesces*: it drains the backlog into a burst
  (capped by ``_MAX_BURST_FRAMES`` / ``_MAX_BURST_BYTES``), joins the
  frames into one immutable ``bytes`` and pays a single
  ``writer.write()`` + ``writer.drain()`` for the whole burst -- one
  syscall and one backpressure round-trip amortised over up to 128
  frames instead of each frame paying its own.  The join is a fresh
  ``bytes`` object every attempt because the event loop (uvloop in
  particular) may keep a reference to a written buffer until the write
  completes -- a reused mutable scratch must never be handed to
  ``write()``;
* reconnect-with-backoff (50 ms doubling to 1 s) when the peer is not
  yet listening or the connection drops; the burst being written when
  a connection dies is retried on the next connection *in full* -- the
  unsent tail is kept, not just the first frame;
* a *reachability cap*: after ``unreachable_after`` consecutive failed
  connect attempts to a known address, the link parks as unreachable
  instead of retrying forever -- its backlog is dropped (counted as
  ``dropped_unreachable``), new sends drop immediately, and the peer
  name is surfaced via :meth:`TcpTransport.unreachable_peers`.  A
  fresh :meth:`TcpTransport.register_address` for that peer (how a
  supervisor announces a restarted worker's new port) revives the
  link; the in-flight burst held across the outage is still retried
  in full;
* ``transport.queue_wait`` attribution is recorded when a frame leaves
  the queue for a burst, exactly as it was for per-frame writes.

Encoding reuses a per-link ``bytearray`` scratch (outer framing + the
codec's :func:`~repro.runtime.codec.encode_into`) snapshotted to
``bytes`` once per message; decoding hands the codec a ``memoryview``
into the receive buffer (see the zero-copy contract in
``runtime/codec.py`` and docs/PERFORMANCE.md).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Optional

from .asyncio_kernel import AsyncioKernel, LiveStore
from .kernel import Envelope

__all__ = ["LiveHost", "TcpTransport"]

_LEN = struct.Struct("!I")
_SENT_AT = struct.Struct("!d")
_U16 = struct.Struct("!H")

_BACKOFF_INITIAL = 0.05
_BACKOFF_CAP = 1.0

# Coalescing caps: bound the memory a single joined write may pin and
# keep reconnect retransmission amortised (a lost connection re-sends
# at most one burst).
_MAX_BURST_FRAMES = 128
_MAX_BURST_BYTES = 1 << 20

# Largest inbound frame a listener will buffer.  Far above anything the
# protocol sends (a full adaptive batch of 8 KiB values is ~2 MiB, a
# recovery reply a few of those); a length prefix beyond it is garbage,
# and reading it would buffer up to 4 GiB before the codec ever saw it.
_MAX_FRAME_BYTES = 64 << 20

_LEN_PLACEHOLDER = bytes(_LEN.size)


class LiveHost:
    """A named node bound to the live kernel (sim ``Host`` mirror)."""

    __slots__ = ("env", "name", "inbox", "crashed", "incarnation", "actor")

    def __init__(self, env: AsyncioKernel, name: str):
        self.env = env
        self.name = name
        self.inbox: LiveStore = LiveStore(env)
        self.crashed = False
        self.incarnation = 0
        self.actor: Optional[Any] = None

    def crash(self) -> None:
        self.crashed = True
        self.incarnation += 1
        self.inbox = LiveStore(self.env)

    def recover(self) -> None:
        self.crashed = False
        self.inbox = LiveStore(self.env)

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"<LiveHost {self.name} ({state})>"


class _PeerLink:
    """Outbound connection to one destination name."""

    def __init__(self, transport: "TcpTransport", dst: str, queue_frames: int):
        self.transport = transport
        self.dst = dst
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_frames)
        self.scratch = bytearray()   # per-link encode scratch (send path)
        # src name -> packed [u16 src_len][src][u16 dst_len][dst]: the
        # same bytes for every message a sender puts on this link.
        self.name_headers: dict[str, bytes] = {}
        self.unreachable = False
        self._failures = 0           # consecutive failed connect attempts
        self._revive = asyncio.Event()
        self.task = asyncio.ensure_future(self._run())
        self.connects = 0

    def revive(self) -> None:
        """Wake a parked link (a new address was registered)."""
        self._revive.set()

    async def _connect(self) -> tuple:
        backoff = _BACKOFF_INITIAL
        while True:
            address = self.transport._addresses.get(self.dst)
            if address is not None:
                reconnecting = self.connects > 0
                try:
                    reader, writer = await asyncio.open_connection(*address)
                    self.connects += 1
                    self._failures = 0
                    if reconnecting:
                        self.transport._count_reconnect()
                    return reader, writer
                except OSError:
                    self.transport._count_reconnect()
                    self._failures += 1
                    if self._failures >= self.transport._unreachable_after:
                        # The peer has a known address but nothing is
                        # listening there: park instead of retrying
                        # forever.  A register_address for this peer
                        # (e.g. the restarted worker's new port)
                        # revives us; until then the backlog is dead
                        # weight and is dropped.
                        await self._park()
                        backoff = _BACKOFF_INITIAL
                        continue
            # No address yet is *not* a failure: deployments create
            # links before the supervisor distributes the address map.
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, _BACKOFF_CAP)

    async def _park(self) -> None:
        self.unreachable = True
        self._revive.clear()
        dropped = 0
        while True:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            dropped += 1
        self.transport._note_unreachable(self.dst, parked=True,
                                         dropped=dropped)
        await self._revive.wait()
        self.unreachable = False
        self._failures = 0
        self.transport._note_unreachable(self.dst, parked=False)

    async def _run(self) -> None:
        writer = None
        # Frames pulled off the queue but not yet confirmed written.  On
        # a connection error the WHOLE list is retried on the next
        # connection: a burst interrupted mid-write must re-send its
        # unsent tail, not just its first frame.
        pending: list[bytes] = []
        pending_bytes = 0
        queue = self.queue
        note_dequeue = self.transport._note_dequeue
        try:
            while True:
                if not pending:
                    enqueued_at, msg_id, frame = await queue.get()
                    note_dequeue(self.dst, msg_id, enqueued_at)
                    pending.append(frame)
                    pending_bytes = len(frame)
                    # Coalesce: opportunistically drain the backlog that
                    # built up while the last burst was writing.
                    while (len(pending) < _MAX_BURST_FRAMES
                           and pending_bytes < _MAX_BURST_BYTES):
                        try:
                            enqueued_at, msg_id, frame = queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        note_dequeue(self.dst, msg_id, enqueued_at)
                        pending.append(frame)
                        pending_bytes += len(frame)
                if writer is None:
                    _reader, writer = await self._connect()
                try:
                    # One write + one drain for the whole burst.  The
                    # join allocates fresh immutable bytes on purpose:
                    # the loop may hold the buffer until the write
                    # lands (uvloop does), so no scratch reuse here.
                    writer.write(
                        pending[0] if len(pending) == 1
                        else b"".join(pending)
                    )
                    # Backpressure: wait for the socket buffer to drain
                    # before pulling the next burst off the queue.
                    await writer.drain()
                    self.transport._note_flush(len(pending), pending_bytes)
                    pending.clear()
                    pending_bytes = 0
                except (ConnectionError, OSError):
                    writer = None   # reconnect and retry the whole burst
        except asyncio.CancelledError:
            pass
        finally:
            if writer is not None:
                writer.close()

    def close(self) -> None:
        self.task.cancel()


class TcpTransport:
    """Transport over localhost TCP with per-peer links.

    Counter names mirror :class:`repro.sim.network.Network` so
    invariant checkers and reports read either backend unchanged.
    """

    def __init__(
        self,
        kernel: AsyncioKernel,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        send_queue_frames: int = 1024,
        encode: Optional[Callable[..., bytes]] = None,
        decode: Optional[Callable[[bytes], Any]] = None,
        node: Optional[str] = None,
        unreachable_after: int = 30,
    ):
        decode_with_context = None
        encode_into = None
        peek_type = None
        if encode is None or decode is None:
            from . import codec

            if encode is None:
                encode = codec.encode
                encode_into = codec.encode_into
            if decode is None:
                decode = codec.decode
                decode_with_context = codec.decode_with_context
                peek_type = codec.peek_type
        self.env = kernel
        self._encode = encode
        # Zero-copy fast paths, only wired when the default codec is in
        # play: scratch-append encode and memoryview-accepting decode.
        # A custom codec keeps the copying bytes-in/bytes-out contract.
        self._encode_into = encode_into
        self._decode = decode
        self._decode_with_context = decode_with_context
        self._peek_type = peek_type
        # What parsing an inbound frame raises when the bytes are bad:
        # the envelope's own struct / utf-8 reads, and the default
        # codec's one typed error.
        self._malformed: tuple = (struct.error, UnicodeDecodeError)
        if decode_with_context is not None:
            self._malformed += (codec.CodecError,)
        self.node = node
        self._bind_host = bind_host
        self._bind_port = bind_port
        self._send_queue_frames = send_queue_frames
        self._hosts: dict[str, LiveHost] = {}
        # dst name -> (ip, port).  All local hosts map to this
        # transport's own listener; a multi-process deployment injects
        # remote entries here.
        self._addresses: dict[str, tuple[str, int]] = {}
        self._links: dict[str, _PeerLink] = {}
        if unreachable_after < 1:
            raise ValueError("unreachable_after must be >= 1")
        self._unreachable_after = unreachable_after
        self._unreachable: set[str] = set()
        # Peer names this node is partitioned from (chaos injection):
        # outbound sends to and inbound frames from a blocked peer are
        # dropped at the socket boundary, the live analogue of the sim
        # fault layer's network partition.
        self._blocked: set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[tuple[str, int]] = None
        tracer = kernel.tracer
        self._tracer = tracer
        self._net_tracer = (
            tracer if tracer is not None and tracer.wants_net else None
        )
        # Trace-context propagation rides on *any* installed tracer
        # (not just the net firehose): the whole point is that another
        # node can correlate the lifecycle, and the default codec must
        # be in play for the versioned context field to exist.
        self._propagate_context = (
            tracer is not None and decode_with_context is not None
        )
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.bytes_delivered = 0
        self.dropped_on_crash = 0
        self.dropped_backpressure = 0
        self.dropped_unreachable = 0
        self.dropped_partition = 0
        self.dropped_malformed = 0
        self.peers_parked = 0
        self.reconnect_attempts = 0
        self.peak_send_queue = 0
        self.frames_coalesced = 0
        self.writer_flushes = 0
        self.bytes_written = 0
        # Registry instruments (None when no registry is installed):
        # the same numbers as the attributes above, but scrapeable via
        # the node's /metrics endpoint and `--metrics-out` dumps.
        metrics = kernel.metrics
        actor = node if node is not None else "transport"
        if metrics is not None:
            self._m_reconnects = metrics.counter(actor, "transport_reconnects")
            self._m_drop_crash = metrics.counter(
                actor, "transport_dropped_on_crash"
            )
            self._m_drop_backpressure = metrics.counter(
                actor, "transport_dropped_backpressure"
            )
            self._m_queue_depth = metrics.gauge(
                actor, "transport_send_queue_depth"
            )
            self._m_queue_wait = metrics.histogram(actor, "queue_wait_ms")
            self._m_frames_coalesced = metrics.counter(
                actor, "transport_frames_coalesced"
            )
            self._m_writer_flushes = metrics.counter(
                actor, "transport_writer_flushes"
            )
            self._m_bytes_per_write = metrics.histogram(
                actor, "bytes_per_write"
            )
        else:
            self._m_reconnects = None
            self._m_drop_crash = None
            self._m_drop_backpressure = None
            self._m_queue_depth = None
            self._m_queue_wait = None
            self._m_frames_coalesced = None
            self._m_writer_flushes = None
            self._m_bytes_per_write = None
        # Queue-wait attribution (the queue-vs-wire split of the latency
        # budget) needs the msg_id extracted even when context
        # propagation is off; only bother when someone is listening.
        self._track_queue_wait = (
            tracer is not None or self._m_queue_wait is not None
        )

    def _count_reconnect(self) -> None:
        self.reconnect_attempts += 1
        if self._m_reconnects is not None:
            self._m_reconnects.record()

    def _note_unreachable(self, dst: str, parked: bool,
                          dropped: int = 0) -> None:
        """A peer link parked as unreachable (or revived)."""
        if parked:
            self._unreachable.add(dst)
            self.peers_parked += 1
            self.messages_dropped += dropped
            self.dropped_unreachable += dropped
        else:
            self._unreachable.discard(dst)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport.peer_unreachable" if parked
                else "transport.peer_revived",
                self.env._now, dst=dst, dropped=dropped,
            )

    def _note_flush(self, frames: int, nbytes: int) -> None:
        """One coalesced burst was written and drained successfully."""
        self.writer_flushes += 1
        self.frames_coalesced += frames
        self.bytes_written += nbytes
        if self._m_writer_flushes is not None:
            self._m_writer_flushes.record()
        if self._m_frames_coalesced is not None:
            self._m_frames_coalesced.record(frames)
        if self._m_bytes_per_write is not None:
            self._m_bytes_per_write.record(float(nbytes))

    def _note_dequeue(
        self, dst: str, msg_id: Optional[int], enqueued_at: float
    ) -> None:
        """A frame left its per-peer send queue: record how long it sat
        there (the queue half of the latency budget's queue-vs-wire
        transport split).  Only msg_id-bearing payloads are traced so
        the volume stays at value-message scale, like ``net.context``."""
        if msg_id is None:
            return
        wait = self.env._now - enqueued_at
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport.queue_wait", self.env._now, dst=dst,
                msg_id=msg_id, wait=wait,
            )
        if self._m_queue_wait is not None:
            self._m_queue_wait.record(1000.0 * wait)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener; register all local hosts at its address."""
        if self._server is not None:
            raise RuntimeError("transport already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self._bind_host, self._bind_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        for name in self._hosts:
            self._addresses.setdefault(name, self.address)
        return self.address

    async def stop(self) -> None:
        for link in self._links.values():
            link.close()
        await asyncio.gather(
            *(link.task for link in self._links.values()),
            return_exceptions=True,
        )
        self._links.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- hosts --------------------------------------------------------

    def add_host(self, name: str) -> LiveHost:
        if name not in self._hosts:
            self._hosts[name] = LiveHost(self.env, name)
            if self.address is not None:
                self._addresses.setdefault(name, self.address)
        return self._hosts[name]

    def host(self, name: str) -> LiveHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def register_address(self, name: str, address: tuple[str, int]) -> None:
        """Map a (possibly remote) host name to its listener address.

        Re-registering a peer that was parked as unreachable revives
        its link: this is how a restarted worker's fresh listener port
        is announced."""
        self._addresses[name] = address
        link = self._links.get(name)
        if link is not None and link.unreachable:
            link.revive()

    # -- fault injection (deployment chaos plane) ---------------------

    def set_partition(self, peers: list[str], blocked: bool = True) -> None:
        """Block (or heal) traffic to and from the named peer hosts.

        Symmetric at this node's boundary: outbound sends to a blocked
        peer and inbound frames from one are dropped and counted as
        ``dropped_partition``.  The supervisor applies the same set on
        both sides of the cut."""
        for peer in peers:
            if blocked:
                self._blocked.add(peer)
            else:
                self._blocked.discard(peer)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport.partition", self.env._now,
                peers=sorted(peers), blocked=blocked,
                now_blocked=sorted(self._blocked),
            )

    def partitioned_peers(self) -> list[str]:
        return sorted(self._blocked)

    def unreachable_peers(self) -> list[str]:
        """Peers whose links are currently parked (reconnect cap hit)."""
        return sorted(self._unreachable)

    # -- introspection (health endpoint / reports) --------------------

    def queue_depths(self) -> dict[str, int]:
        """Current send-queue depth per destination link."""
        return {dst: link.queue.qsize() for dst, link in self._links.items()}

    def counters(self) -> dict[str, int]:
        """The Network-compatible counter set plus live-only extras."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_delivered": self.bytes_delivered,
            "dropped_on_crash": self.dropped_on_crash,
            "dropped_backpressure": self.dropped_backpressure,
            "dropped_unreachable": self.dropped_unreachable,
            "dropped_partition": self.dropped_partition,
            "dropped_malformed": self.dropped_malformed,
            "peers_parked": self.peers_parked,
            "peers_unreachable": len(self._unreachable),
            "reconnect_attempts": self.reconnect_attempts,
            "peak_send_queue": self.peak_send_queue,
            "frames_coalesced": self.frames_coalesced,
            "writer_flushes": self.writer_flushes,
            "bytes_written": self.bytes_written,
        }

    # -- sending ------------------------------------------------------

    def _trace_drop(self, src: str, dst: str, payload: Any, reason: str) -> None:
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.drop", self.env.now, src=src, dst=dst,
                type=type(payload).__name__, reason=reason,
            )

    def _trace_inbound_drop(
        self, src: str, dst: str, inner: bytes, pos: int, reason: str
    ) -> None:
        """``net.drop`` for a received frame that is discarded undecoded:
        the trace wants only the type name, which the codec header (at
        ``inner[pos:]``) carries."""
        tracer = self._net_tracer
        if tracer is not None:
            try:
                if self._peek_type is not None:
                    type_name = self._peek_type(memoryview(inner)[pos:])
                else:
                    type_name = type(self._decode(inner[pos:])).__name__
            except self._malformed:
                type_name = "unknown"   # dropped and counted already
            tracer.emit(
                "net.drop", self.env.now, src=src, dst=dst,
                type=type_name, reason=reason,
            )

    def send(self, src: str, dst: str, payload: Any, size: int = 128) -> None:
        """Fire-and-forget: enqueue one framed message to ``dst``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self.messages_sent += 1
        sender = self._hosts.get(src)
        if sender is not None and sender.crashed:
            self.messages_dropped += 1
            self.dropped_on_crash += 1
            if self._m_drop_crash is not None:
                self._m_drop_crash.record()
            self._trace_drop(src, dst, payload, "src_crashed")
            return
        if dst in self._blocked:
            self.messages_dropped += 1
            self.dropped_partition += 1
            self._trace_drop(src, dst, payload, "partition")
            return
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.send", self.env.now, src=src, dst=dst,
                type=type(payload).__name__, size=size,
            )
        msg_id = None
        if self._track_queue_wait:
            # Correlate by message id when the payload carries one --
            # directly (AppValue) or as a Propose's ordering token.
            msg_id = getattr(payload, "msg_id", None)
            if msg_id is None:
                msg_id = getattr(
                    getattr(payload, "token", None), "msg_id", None
                )
        context: Optional[dict] = None
        if self._propagate_context:
            context = {"origin": self.node or src, "ts": self.env._now}
            if msg_id is not None:
                context["msg_id"] = msg_id
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _PeerLink(
                self, dst, self._send_queue_frames
            )
        if link.unreachable:
            # The link hit its reconnect cap and parked; queueing more
            # would only grow a backlog for a peer that is not coming
            # back on this address.
            self.messages_dropped += 1
            self.dropped_unreachable += 1
            self._trace_drop(src, dst, payload, "peer_unreachable")
            return
        names = link.name_headers.get(src)
        if names is None:
            src_raw = src.encode("utf-8")
            dst_raw = dst.encode("utf-8")
            names = link.name_headers[src] = (
                _U16.pack(len(src_raw)) + src_raw
                + _U16.pack(len(dst_raw)) + dst_raw
            )
        if self._encode_into is not None:
            # Zero-copy encode: build the outer frame in the link's
            # reusable scratch (length patched once known), then
            # snapshot to immutable bytes -- the only allocation per
            # message, and required before queueing (writers must never
            # see a mutable buffer; see the module docstring).
            scratch = link.scratch
            scratch.clear()
            scratch += _LEN_PLACEHOLDER
            scratch += _SENT_AT.pack(self.env._now)
            scratch += names
            self._encode_into(payload, scratch, context)
            _LEN.pack_into(scratch, 0, len(scratch) - _LEN.size)
            frame = bytes(scratch)
        else:
            if context is not None:
                body = self._encode(payload, trace_context=context)
            else:
                body = self._encode(payload)
            inner = _SENT_AT.pack(self.env._now) + names + body
            frame = _LEN.pack(len(inner)) + inner
        try:
            link.queue.put_nowait((self.env._now, msg_id, frame))
        except asyncio.QueueFull:
            # Bounded fire-and-forget queue: drop under sustained
            # backpressure, like a full kernel buffer.  The protocol's
            # retransmission repairs the loss.
            self.messages_dropped += 1
            self.dropped_backpressure += 1
            if self._m_drop_backpressure is not None:
                self._m_drop_backpressure.record()
            self._trace_drop(src, dst, payload, "backpressure")
            return
        depth = link.queue.qsize()
        if depth > self.peak_send_queue:
            self.peak_send_queue = depth
        if self._m_queue_depth is not None:
            self._m_queue_depth.record(depth)

    def broadcast(
        self, src: str, dsts: list[str], payload: Any, size: int = 128
    ) -> None:
        for dst in dsts:
            self.send(src, dst, payload, size)

    # -- receiving ----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(_LEN.size)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                (frame_len,) = _LEN.unpack(header)
                if frame_len > _MAX_FRAME_BYTES:
                    self._drop_malformed(
                        writer, f"frame_len {frame_len} > {_MAX_FRAME_BYTES}"
                    )
                    return
                try:
                    inner = await reader.readexactly(frame_len)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                try:
                    self._deliver_frame(inner, frame_len + _LEN.size)
                except self._malformed as exc:
                    self._drop_malformed(writer, repr(exc))
                    return
        finally:
            writer.close()

    def _drop_malformed(self, writer: asyncio.StreamWriter, error: str) -> None:
        """An inbound frame did not parse; the caller closes the
        connection it came in on."""
        self.messages_dropped += 1
        self.dropped_malformed += 1
        tracer = self._net_tracer
        if tracer is not None:
            peer = writer.get_extra_info("peername")
            tracer.emit(
                "net.drop", self.env.now,
                src=("%s:%s" % peer[:2]) if peer else "unknown",
                dst=self.node or "", type="unknown", reason="malformed",
                error=error,
            )

    def _deliver_frame(self, inner: bytes, frame_bytes: int) -> None:
        (sent_at,) = _SENT_AT.unpack_from(inner, 0)
        pos = _SENT_AT.size
        (src_len,) = _U16.unpack_from(inner, pos)
        pos += 2
        src = inner[pos:pos + src_len].decode("utf-8")
        pos += src_len
        (dst_len,) = _U16.unpack_from(inner, pos)
        pos += 2
        dst = inner[pos:pos + dst_len].decode("utf-8")
        pos += dst_len
        # Frames that will be discarded are discarded undecoded.
        if src in self._blocked:
            # Inbound half of a partition: frames already in flight (or
            # sent before the remote side learned of the cut) die here.
            self.messages_dropped += 1
            self.dropped_partition += 1
            self._trace_inbound_drop(src, dst, inner, pos, "partition")
            return
        receiver = self._hosts.get(dst)
        if receiver is None or receiver.crashed:
            self.messages_dropped += 1
            self._trace_inbound_drop(src, dst, inner, pos, "dst_crashed")
            return
        context = None
        if self._decode_with_context is not None:
            # Zero-copy decode: the codec parses straight out of the
            # receive buffer through a memoryview -- no body copy.
            # Decoded messages own their leaves (codec contract), so
            # `inner` is free as soon as this returns.
            payload, context = self._decode_with_context(
                memoryview(inner)[pos:]
            )
        else:
            payload = self._decode(inner[pos:])
        if context is not None and context.get("msg_id") is not None:
            tracer = self._tracer
            if tracer is not None:
                # The propagated context names the *origin* node and the
                # sender's node-local clock: the merge tool and the
                # lifecycle index can tie this arrival back to the send
                # even across clock domains.  Emitted as "meta" (not the
                # opt-in net firehose) because it carries the msg_id
                # correlation the default categories exist for, and only
                # for msg_id-bearing payloads so the volume stays at
                # value-message scale.
                tracer.emit(
                    "net.context", self.env._now, cat="meta", src=src,
                    dst=dst, origin=context.get("origin"),
                    msg_id=context["msg_id"], origin_ts=context.get("ts"),
                )
        now = self.env._now
        self.messages_delivered += 1
        self.bytes_delivered += frame_bytes
        envelope = Envelope(
            src=src, dst=dst, payload=payload, size=frame_bytes,
            sent_at=sent_at, delivered_at=now,
            dst_incarnation=receiver.incarnation, duplicated=False,
        )
        receiver.inbox.put_nowait(envelope)
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.deliver", now, src=src, dst=dst,
                type=type(payload).__name__,
                latency=now - sent_at,
                inbox_depth=len(receiver.inbox),
            )
