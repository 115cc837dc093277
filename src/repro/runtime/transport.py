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

``frame_len`` counts everything after itself.  ``dst`` is one
destination name, or the names of a fan-out that live behind the same
peer address joined by NUL bytes: such a frame is built, written,
received and decoded once, and the one decoded message is handed to
each named actor in envelope order (what the sim's ``Network.broadcast``
does with one object).  Everything that is checked, counted or traced
about a message stays per destination *name*; only ``bytes_written`` /
``bytes_delivered`` count a shared frame once, because that is the
wire.  Bytes that do not parse
-- a ``frame_len`` above ``_MAX_FRAME_BYTES``, a damaged envelope, a
codec frame the codec rejects -- are the sender's fault, not the
listener's: the frame is counted (``dropped_malformed``), traced
(``net.drop``, ``reason="malformed"``) and *that connection* is closed,
since nothing after a bad length prefix can be re-synchronised.  Every
other connection, and the listener, carry on.

The datapath is callbacks on the event loop -- no task, queue or stream
object between ``send`` and the socket, or between the socket and the
receiving actor's handler (docs/RUNTIME.md section 3 has the contracts):

* one outbound :class:`_Connection` per peer *address*, shared by every
  destination name behind it; a name with no address yet waits on an
  address-less connection until ``register_address`` moves it;
* ``send`` appends one frame per connection (all the names of a
  fan-out that route there share it) and arms the transport's one
  end-of-turn callback: it first runs what senders handed to ``defer``
  (a client's submission batch is formed there, from everything it
  submitted in the turn), then flushes each connection sent to -- one
  ``transport.write()`` of everything queued in that turn, held back
  between ``pause_writing`` / ``resume_writing``.
  Beyond ``send_queue_frames`` pending frames per destination *name*
  the message is dropped and counted, like a saturated kernel buffer
  under a datagram model: loss is repaired by the protocol's
  retransmission, never by the transport;
* reconnect with backoff (50 ms doubling to 1 s), pending frames leave
  in order on the next connection; after ``unreachable_after`` failed
  connects the connection *parks* -- backlog and new sends dropped
  (``dropped_unreachable``) -- until ``register_address`` revives it;
* an accepted connection (:class:`_Inbound`) is a buffered protocol:
  the kernel reads straight into the connection's one ``bytearray``
  (64 KiB, grown to the largest frame received), every complete frame
  is cut out of it as a ``memoryview`` slice -- never joined, never
  copied -- and the decoded payload goes to each destination actor's
  ``receive`` right there.  A
  frame queues in the host's inbox only while that actor's mailbox
  is not parked on an empty inbox (no actor, not started, stopped, or
  still draining what queued before); the mailbox drains those first,
  so per-host order holds.  A handler that raises stops its actor's
  mailbox (``kernel.failures``), never the connection.

Encoding reuses one ``bytearray`` scratch for the codec's
:func:`~repro.runtime.codec.encode_into`, joined with the envelope into
immutable ``bytes`` once per frame.  Decoding hands the codec a
``memoryview`` into the receive buffer, which the next read overwrites
(the zero-copy contract -- decoded messages own their leaves:
``runtime/codec.py``, docs/PERFORMANCE.md).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Optional, Sequence, Union

from .asyncio_kernel import AsyncioKernel, LiveStore
from .kernel import Envelope

__all__ = ["LiveHost", "TcpTransport"]

_LEN = struct.Struct("!I")
_HEAD = struct.Struct("!Id")        # frame_len, sent_at
_ENVELOPE = struct.Struct("!dH")    # sent_at, src_len
_U16 = struct.Struct("!H")

# Joins the destination names of a shared frame; no host name has it.
_NAME_SEP = "\0"

_BACKOFF_INITIAL = 0.05
_BACKOFF_CAP = 1.0

# Largest inbound frame a listener will buffer.  Far above anything the
# protocol sends (a full adaptive batch of 8 KiB values is ~2 MiB, a
# recovery reply a few of those); a length prefix beyond it is garbage,
# and reading it would buffer up to 4 GiB before the codec ever saw it.
_MAX_FRAME_BYTES = 64 << 20

# What an accepted connection's receive buffer starts at; it grows to
# the largest frame received, never per read.
_RECV_BUFFER_BYTES = 64 << 10

_Address = tuple[str, int]


def _open_envelope(inner: Any) -> tuple[float, str, str, int]:
    """``(sent_at, src, dst field, offset of the codec frame)`` of a
    frame without its length prefix (bytes or a view of them)."""
    sent_at, src_len = _ENVELOPE.unpack_from(inner, 0)
    pos = _ENVELOPE.size + src_len
    src = str(inner[_ENVELOPE.size:pos], "utf-8")
    (dst_len,) = _U16.unpack_from(inner, pos)
    pos += _U16.size
    return sent_at, src, str(inner[pos:pos + dst_len], "utf-8"), pos + dst_len

# Zeroed at construction, reported by ``counters()``.  The names mirror
# :class:`repro.sim.network.Network` so invariant checkers and reports
# read either backend unchanged; the tail is live-only.
_COUNTERS = (
    "messages_sent", "messages_delivered", "messages_dropped",
    "bytes_delivered", "dropped_on_crash", "dropped_backpressure",
    "dropped_unreachable", "dropped_partition", "dropped_malformed",
    "peers_parked", "reconnect_attempts", "peak_send_queue",
    "frames_coalesced", "writer_flushes", "bytes_written",
)


class LiveHost:
    """A named node bound to the live kernel (sim ``Host`` mirror).

    ``inbox`` holds only the frames that arrived while ``actor``'s
    mailbox was not parked on it; the rest went straight to
    ``actor.receive`` (:meth:`TcpTransport._deliver_frame`)."""

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


class _Connection(asyncio.Protocol):
    """Outbound connection to one peer address, shared by every
    destination name behind it.  ``address`` None holds the frames of
    names no address is known for yet and never dials."""

    def __init__(self, owner: "TcpTransport", address: Optional[_Address]):
        self.owner = owner
        self.address = address
        # (names, enqueued_at, msg_id, frame), oldest first -- names is
        # the tuple of destinations the frame's envelope carries -- and
        # how many pending messages each destination name has.
        self.pending: list[tuple] = []
        self.depths: dict[str, int] = {}
        self.transport: Optional[asyncio.Transport] = None
        self.paused = False
        self.flush_armed = False     # listed in owner._unflushed
        self.unreachable = False
        self.connects = 0
        self._failures = 0           # consecutive failed connect attempts
        self._connecting: Optional[asyncio.Task] = None

    def flush(self) -> None:
        """Write everything pending as one buffer -- or, without a
        socket, make sure one is being dialled."""
        self.flush_armed = False
        transport = self.transport
        if transport is None:
            self._dial()
            return
        pending = self.pending
        # A closing socket would swallow the bytes: keep them for the
        # reconnect that connection_lost starts.
        if self.paused or not pending or transport.is_closing():
            return
        messages = sum(self.depths.values())   # one per name per frame
        self.pending = []
        self.depths.clear()
        owner = self.owner
        if owner._track_queue_wait:
            for names, enqueued_at, msg_id, _frame in pending:
                if msg_id is not None:
                    for dst in names:
                        owner._note_queue_wait(dst, msg_id, enqueued_at)
        frames = [entry[3] for entry in pending]
        # The join allocates fresh immutable bytes on purpose: the loop
        # may hold the buffer until the write lands (uvloop does).
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        transport.write(data)
        owner.writer_flushes += 1
        owner.frames_coalesced += messages
        owner.bytes_written += len(data)
        if owner._m_writer_flushes is not None:
            owner._m_writer_flushes.record()
            owner._m_frames_coalesced.record(messages)
            owner._m_bytes_per_write.record(float(len(data)))

    def _dial(self) -> None:
        if not (self.address is None or self.unreachable
                or self._connecting is not None):
            self._connecting = asyncio.ensure_future(self._connect())

    async def _connect(self) -> None:
        owner = self.owner
        backoff = _BACKOFF_INITIAL
        try:
            while True:
                try:
                    await owner._loop.create_connection(
                        lambda: self, *self.address
                    )
                    return
                except OSError:
                    owner._count_reconnect()
                    self._failures += 1
                    if self._failures >= owner._unreachable_after:
                        # A known address with nothing listening there:
                        # park instead of retrying forever.
                        owner._note_reachability(self, parked=True)
                        return
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, _BACKOFF_CAP)
        finally:
            self._connecting = None

    def close(self) -> None:
        self.address = None   # never dials again
        self.pending.clear()
        if self._connecting is not None:
            self._connecting.cancel()
        if self.transport is not None:
            self.transport.close()

    # -- asyncio.Protocol ---------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._failures = 0
        self.connects += 1
        if self.connects > 1:
            self.owner._count_reconnect()
        self.flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self.paused = False
        if self.pending:
            self._dial()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: the kernel reads into the connection's
    own buffer, and frames are parsed where they landed."""

    def __init__(self, owner: "TcpTransport"):
        self.owner = owner
        self.transport: Optional[asyncio.Transport] = None
        # Received bytes not yet handed on are _buffer[_start:_end]: the
        # head of a frame whose tail has yet to arrive.  The buffer only
        # ever grows, to hold the largest frame received.
        self._buffer = bytearray(_RECV_BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._start = 0
        self._end = 0

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.owner._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._inbound.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        # buffer_updated leaves room behind _end for at least the rest
        # of the frame in progress, so this is never empty.
        end = self._end
        return self._view if end == 0 else self._view[end:]

    def buffer_updated(self, nbytes: int) -> None:
        # Complete frames are handed on as views of the buffer; the
        # codec's decoded messages own their leaves, so the bytes are
        # free for the next read as soon as this returns.
        view = self._view
        end = self._end + nbytes
        pos = self._start
        need = _LEN.size
        while end - pos >= _LEN.size:
            need = self._frame_size(view, pos)
            if need is None:
                return
            if end - pos < need:
                break
            frame = view[pos + _LEN.size:pos + need]
            pos += need
            if not self._deliver(frame, need):
                return
            need = _LEN.size
        if pos == end:
            self._start = self._end = 0
            return
        if pos + need > len(view):
            # The frame in progress would not fit behind its head: move
            # the head to the front, into a bigger buffer if the frame
            # is bigger than this one (_frame_size has vetted it).
            held = end - pos
            if need > len(view):
                self._buffer = bytearray(need)
                fresh = memoryview(self._buffer)
                fresh[:held] = view[pos:end]
                self._view = fresh
            else:
                view[:held] = view[pos:end]
            pos, end = 0, held
        self._start, self._end = pos, end

    def _frame_size(self, data: Any, pos: int) -> Optional[int]:
        """Prefix plus frame, from the length prefix at ``data[pos:]``;
        None when it is garbage (the connection is closed)."""
        (frame_len,) = _LEN.unpack_from(data, pos)
        if frame_len > _MAX_FRAME_BYTES:
            self.owner._drop_malformed(
                self.transport, f"frame_len {frame_len} > {_MAX_FRAME_BYTES}"
            )
            return None
        return _LEN.size + frame_len

    def _deliver(self, inner: memoryview, frame_bytes: int) -> bool:
        """Hand one whole frame on; False when it did not parse (the
        connection is closed, nothing behind it is looked at)."""
        owner = self.owner
        try:
            owner._deliver_frame(inner, frame_bytes)
        except owner._malformed as exc:
            owner._drop_malformed(self.transport, repr(exc))
            return False
        return True


class TcpTransport:
    """Transport over localhost TCP, one connection per peer address."""

    def __init__(
        self,
        kernel: AsyncioKernel,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        send_queue_frames: int = 1024,
        node: Optional[str] = None,
        unreachable_after: int = 30,
    ):
        from . import codec

        self.env = kernel
        self._loop = kernel._loop
        # The codec's zero-copy entry points, bound here (not at import)
        # so whoever wraps the codec module first is what runs:
        # scratch-append encode and memoryview-accepting decode.
        self._encode_into = codec.encode_into
        self._decode_with_context = codec.decode_with_context
        self._peek_type = codec.peek_type
        # What parsing an inbound frame raises when the bytes are bad:
        # the envelope's own struct / utf-8 reads, and the codec's one
        # typed error.
        self._malformed = (struct.error, UnicodeDecodeError, codec.CodecError)
        self.node = node
        self._bind_host = bind_host
        self._bind_port = bind_port
        self._send_queue_frames = send_queue_frames
        self._hosts: dict[str, LiveHost] = {}
        # dst name -> (ip, port).  All local hosts map to this
        # transport's own listener; a multi-process deployment injects
        # remote entries here.
        self._addresses: dict[str, _Address] = {}
        # address -> outbound connection (None keys the holding
        # connection of names without an address), and which of them
        # each destination name sent to so far goes out on.
        self._connections: dict[Optional[_Address], _Connection] = {}
        self._routes: dict[str, _Connection] = {}
        # (src, names) -> packed [u16 src_len][src][u16 dst_len][dst]: the
        # same bytes for every frame from src to that tuple of names.
        self._name_headers: dict[tuple[str, tuple[str, ...]], bytes] = {}
        self._inbound: set[_Inbound] = set()
        self._scratch = bytearray()   # encode scratch (send path)
        # What the end-of-turn callback has to do, and whether it is
        # scheduled: callables handed to defer(), connections sent to.
        self._deferred: list[Callable[[], None]] = []
        self._unflushed: list[_Connection] = []
        self._turn_armed = False
        if unreachable_after < 1:
            raise ValueError("unreachable_after must be >= 1")
        self._unreachable_after = unreachable_after
        # Peer names this node is partitioned from (chaos injection):
        # outbound sends to and inbound frames from a blocked peer are
        # dropped at the socket boundary, the live analogue of the sim
        # fault layer's network partition.
        self._blocked: set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[_Address] = None
        tracer = kernel.tracer
        self._tracer = tracer
        self._net_tracer = (
            tracer if tracer is not None and tracer.wants_net else None
        )
        # Trace-context propagation (and ``net.context`` /
        # ``transport.queue_wait``) rides on a node-stamped tracer, not
        # just the net firehose: another node's trace can then correlate
        # the lifecycle.  A tracer that stamps no node is one timeline
        # for the whole process, which no trace-merge aligns -- its
        # frames go out as version 1.
        self._context_tracer = (
            tracer if tracer is not None and tracer.node is not None
            else None
        )
        for name in _COUNTERS:
            setattr(self, name, 0)
        # Network has these too; TCP neither duplicates nor reorders.
        self.messages_duplicated = self.messages_reordered = 0
        # Registry instruments (None when no registry is installed):
        # the same numbers as the attributes above, but scrapeable via
        # the node's /metrics endpoint and `--metrics-out` dumps.
        metrics = kernel.metrics
        actor = node if node is not None else "transport"

        def instrument(kind: str, name: str) -> Any:
            if metrics is None:
                return None
            return getattr(metrics, kind)(actor, name)

        self._m_reconnects = instrument("counter", "transport_reconnects")
        self._m_drop_crash = instrument("counter", "transport_dropped_on_crash")
        self._m_drop_backpressure = instrument(
            "counter", "transport_dropped_backpressure"
        )
        self._m_queue_depth = instrument("gauge", "transport_send_queue_depth")
        self._m_queue_wait = instrument("histogram", "queue_wait_ms")
        self._m_frames_coalesced = instrument(
            "counter", "transport_frames_coalesced"
        )
        self._m_writer_flushes = instrument("counter", "transport_writer_flushes")
        self._m_bytes_per_write = instrument("histogram", "bytes_per_write")
        # Queue-wait attribution (the queue-vs-wire split of the latency
        # budget) needs the msg_id extracted even when context
        # propagation is off; only bother when someone is listening.
        self._track_queue_wait = (
            self._context_tracer is not None
            or self._m_queue_wait is not None
        )

    def _count_reconnect(self) -> None:
        self.reconnect_attempts += 1
        if self._m_reconnects is not None:
            self._m_reconnects.record()

    def _note_reachability(self, conn: _Connection, parked: bool) -> None:
        """A connection parked as unreachable (its backlog dies with
        it) or was revived: accounted and traced per destination name
        behind its address."""
        conn.unreachable = parked
        conn._failures = 0
        conn.pending.clear()
        depths, conn.depths = conn.depths, {}
        tracer = self._tracer
        for dst, route in self._routes.items():
            if route is not conn:
                continue
            dropped = depths.get(dst, 0)
            if parked:
                self.peers_parked += 1
                self.messages_dropped += dropped
                self.dropped_unreachable += dropped
            if tracer is not None:
                tracer.emit(
                    "transport.peer_unreachable" if parked
                    else "transport.peer_revived",
                    self.env._now, dst=dst, dropped=dropped,
                )

    def _note_queue_wait(self, dst: str, msg_id: int, since: float) -> None:
        """A ``msg_id`` frame left the pending list for the socket:
        record how long it sat there (the queue half of the latency
        budget's queue-vs-wire split).  Only msg_id-bearing payloads, so
        the volume stays at value-message scale, like ``net.context``."""
        wait = self.env._now - since
        tracer = self._context_tracer
        if tracer is not None:
            tracer.emit(
                "transport.queue_wait", self.env._now, (dst, msg_id, wait)
            )
        if self._m_queue_wait is not None:
            self._m_queue_wait.record(1000.0 * wait)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> _Address:
        """Bind the listener; register all local hosts at its address."""
        if self._server is not None:
            raise RuntimeError("transport already started")
        self._server = await self._loop.create_server(
            lambda: _Inbound(self), self._bind_host, self._bind_port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        for name in self._hosts:
            if name not in self._addresses:
                self.register_address(name, self.address)
        return self.address

    async def stop(self) -> None:
        connections = self._connections.values()
        dialling = [c._connecting for c in connections if c._connecting]
        for conn in connections:
            conn.close()
        await asyncio.gather(*dialling, return_exceptions=True)
        self._connections.clear()
        self._routes.clear()
        # Unsent submissions go the way of the unsent frames.
        self._deferred.clear()
        self._unflushed.clear()
        if self._server is not None:
            self._server.close()
            # Accepted connections are ours to close: waiting for the
            # remote ends to hang up first (Python >= 3.12's
            # wait_closed does) would make shutdown depend on them.
            for inbound in list(self._inbound):
                inbound.transport.close()
            await self._server.wait_closed()
            self._server = None

    # -- hosts --------------------------------------------------------

    def add_host(self, name: str) -> LiveHost:
        if name not in self._hosts:
            self._hosts[name] = LiveHost(self.env, name)
            if self.address is not None and name not in self._addresses:
                self.register_address(name, self.address)
        return self._hosts[name]

    def host(self, name: str) -> LiveHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def register_address(self, name: str, address: _Address) -> None:
        """Map a (possibly remote) host name to its listener address.

        Frames already queued for ``name`` move to the connection of
        the new address.  Re-registering a peer whose connection parked
        as unreachable revives it: this is how a restarted worker's
        fresh listener port is announced."""
        self._addresses[name] = address
        conn = self._connections.get(address)
        if conn is not None and conn.unreachable:
            self._note_reachability(conn, parked=False)
        if name in self._routes:
            self._route(name)

    def _route(self, dst: str) -> _Connection:
        """Bind ``dst`` to the connection of its current address, taking
        its queued messages along: a frame it shares with names that
        stay behind is re-framed into one for each side."""
        address = self._addresses.get(dst)
        conn = self._connections.get(address)
        if conn is None:
            conn = self._connections[address] = _Connection(self, address)
        old = self._routes.get(dst, conn)
        self._routes[dst] = conn
        if old is not conn and dst in old.depths:
            conn.depths[dst] = old.depths.pop(dst)
            kept = []
            for entry in old.pending:
                names = entry[0]
                if dst not in names:
                    kept.append(entry)
                    continue
                stay = tuple(name for name in names if name != dst)
                if stay:
                    kept.append(self._reframed(entry, stay))
                    entry = self._reframed(entry, (dst,) * names.count(dst))
                conn.pending.append(entry)
            old.pending = kept
            conn.flush()
        return conn

    def _reframed(self, entry: tuple, names: tuple[str, ...]) -> tuple:
        """A pending entry's message, framed for ``names`` instead."""
        _names, enqueued_at, msg_id, frame = entry
        inner = memoryview(frame)[_LEN.size:]
        sent_at, src, _dst, pos = _open_envelope(inner)
        return names, enqueued_at, msg_id, self._frame(
            sent_at, src, names, inner[pos:]
        )

    # -- fault injection (deployment chaos plane) ---------------------

    def set_partition(self, peers: list[str], blocked: bool = True) -> None:
        """Block (or heal) traffic to and from the named peer hosts.

        Symmetric at this node's boundary: outbound sends to a blocked
        peer and inbound frames from one are dropped and counted as
        ``dropped_partition``.  The run driver applies the same set on
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
        """Peers whose connection is currently parked (reconnect cap hit)."""
        return sorted(
            dst for dst, conn in self._routes.items() if conn.unreachable
        )

    # -- introspection (health endpoint / reports) --------------------

    def queue_depths(self) -> dict[str, int]:
        """Messages pending per destination name."""
        return {
            dst: conn.depths.get(dst, 0) for dst, conn in self._routes.items()
        }

    def counters(self) -> dict[str, int]:
        """The Network-compatible counter set plus live-only extras."""
        counters = {name: getattr(self, name) for name in _COUNTERS}
        counters["peers_unreachable"] = len(self.unreachable_peers())
        return counters

    # -- sending ------------------------------------------------------

    def _drop(
        self, src: str, dst: str, payload: Any, reason: str,
        instrument: Any = None,
    ) -> None:
        """An outbound message dies here (the caller counts why)."""
        self.messages_dropped += 1
        if instrument is not None:
            instrument.record()
        tracer = self._net_tracer
        if tracer is not None:
            tracer.emit(
                "net.drop", self.env.now, src=src, dst=dst,
                type=type(payload).__name__, reason=reason,
            )

    def _trace_inbound_drop(
        self, src: str, dst: str, body: memoryview, reason: str
    ) -> None:
        """``net.drop`` for a received message that is discarded
        undecoded: the trace wants only the type name, which the codec
        header (the start of ``body``) carries."""
        tracer = self._net_tracer
        if tracer is not None:
            try:
                type_name = self._peek_type(body)
            except self._malformed:
                type_name = "unknown"   # dropped and counted already
            tracer.emit(
                "net.drop", self.env.now, src=src, dst=dst,
                type=type_name, reason=reason,
            )

    def send(
        self, src: str, dst: Union[str, Sequence[str]], payload: Any,
        size: int = 128,
    ) -> None:
        """Fire-and-forget: queue ``payload`` to ``dst`` -- one name,
        or the names of a fan-out (:meth:`broadcast`).

        Every name is checked, counted and traced on its own; those that
        pass and route to the same connection share one frame, so the
        payload is encoded once and crosses each link once."""
        if size < 0:
            raise ValueError("size must be non-negative")
        dsts = (dst,) if dst.__class__ is str else dst
        self.messages_sent += len(dsts)
        sender = self._hosts.get(src)
        if sender is not None and sender.crashed:
            for dst in dsts:
                self.dropped_on_crash += 1
                self._drop(src, dst, payload, "src_crashed", self._m_drop_crash)
            return
        tracer = self._net_tracer
        routes = self._routes
        body: Optional[bytearray] = None
        groups: dict[_Connection, list[str]] = {}
        for dst in dsts:
            if dst in self._blocked:
                self.dropped_partition += 1
                self._drop(src, dst, payload, "partition")
                continue
            if tracer is not None:
                tracer.emit(
                    "net.send", self.env.now, src=src, dst=dst,
                    type=type(payload).__name__, size=size,
                )
            conn = routes.get(dst)
            if conn is None:
                conn = self._route(dst)
            if conn.unreachable:
                # The connection hit its reconnect cap and parked;
                # queueing more would only grow a backlog for a peer
                # that is not coming back on this address.
                self.dropped_unreachable += 1
                self._drop(src, dst, payload, "peer_unreachable")
                continue
            depth = conn.depths.get(dst, 0) + 1
            if depth > self._send_queue_frames:
                # Bounded fire-and-forget backlog: drop under sustained
                # backpressure, like a full kernel buffer.  The
                # protocol's retransmission repairs the loss.
                self.dropped_backpressure += 1
                self._drop(
                    src, dst, payload, "backpressure",
                    self._m_drop_backpressure,
                )
                continue
            if body is None:
                # Zero-copy encode into the reusable scratch, once for
                # every name that gets this far -- before anything is
                # accounted as queued, should the codec refuse it.
                now = self.env._now
                msg_id, context = self._correlate(src, payload, now)
                body = self._scratch
                body.clear()
                self._encode_into(payload, body, context)
            conn.depths[dst] = depth
            if depth > self.peak_send_queue:
                self.peak_send_queue = depth
            if self._m_queue_depth is not None:
                self._m_queue_depth.record(depth)
            group = groups.get(conn)
            if group is None:
                groups[conn] = [dst]
            else:
                group.append(dst)
        for conn, group in groups.items():
            names = tuple(group)
            conn.pending.append(
                (names, now, msg_id, self._frame(now, src, names, body))
            )
            if not conn.flush_armed:
                conn.flush_armed = True
                self._unflushed.append(conn)
                self._arm_end_of_turn()

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the head of this turn's write
        (``Transport.defer``): what it sends shares the flush."""
        self._deferred.append(fn)
        self._arm_end_of_turn()

    def _arm_end_of_turn(self) -> None:
        if not self._turn_armed:
            self._turn_armed = True
            self._loop.call_soon(self._end_of_turn)

    def _end_of_turn(self) -> None:
        """The one callback between a loop turn's sends and the sockets:
        deferred callables first, then one write per connection."""
        while self._deferred:
            deferred, self._deferred = self._deferred, []
            for fn in deferred:
                try:
                    fn()
                except Exception as failure:
                    # Its caller left the stack a turn ago.
                    self.env.fail(failure)
        self._turn_armed = False
        unflushed, self._unflushed = self._unflushed, []
        for conn in unflushed:
            conn.flush()

    def _frame(
        self, sent_at: float, src: str, names: tuple[str, ...], body: Any
    ) -> bytes:
        """One wire frame carrying the codec frame ``body`` from ``src``
        to ``names``, as immutable bytes: the loop (uvloop in
        particular) may hold a written buffer until the write lands."""
        header = self._name_headers.get((src, names))
        if header is None:
            if any(_NAME_SEP in name for name in names):
                raise ValueError(f"NUL in a host name: {names!r}")
            src_raw = src.encode("utf-8")
            dst_raw = _NAME_SEP.join(names).encode("utf-8")
            header = self._name_headers[src, names] = (
                _U16.pack(len(src_raw)) + src_raw
                + _U16.pack(len(dst_raw)) + dst_raw
            )
        length = _HEAD.size - _LEN.size + len(header) + len(body)
        return b"".join((_HEAD.pack(length, sent_at), header, body))

    def _correlate(
        self, src: str, payload: Any, now: float
    ) -> tuple[Optional[int], Optional[dict]]:
        """The ``msg_id`` a frame is attributed to and the trace context
        that travels with it: only a frame with a ``msg_id`` carries one
        (the receiver reads none other), the rest go out as version 1."""
        msg_id = None
        if self._track_queue_wait:
            # Correlate by message id when the payload carries one --
            # directly (AppValue) or as a Propose's ordering token.  A
            # Propose that carries a batch of them goes by its first
            # value's: one queue_wait / net.context pair per frame, a
            # sample of the values in it.
            msg_id = getattr(payload, "msg_id", None)
            if msg_id is None:
                token = getattr(payload, "token", None)
                msg_id = getattr(token, "msg_id", None)
                if msg_id is None:
                    msg_id = next((
                        member.msg_id
                        for member in getattr(token, "tokens", ())
                        if hasattr(member, "msg_id")
                    ), None)
        context: Optional[dict] = None
        if msg_id is not None and self._context_tracer is not None:
            context = {"origin": self.node or src, "ts": now, "msg_id": msg_id}
        return msg_id, context

    def broadcast(
        self, src: str, dsts: list[str], payload: Any, size: int = 128
    ) -> None:
        """``payload`` to every destination in ``dsts``: :meth:`send`
        with all the names at once."""
        self.send(src, dsts, payload, size)

    # -- receiving ----------------------------------------------------

    def _drop_malformed(self, transport: asyncio.Transport, error: str) -> None:
        """An inbound frame did not parse: nothing after it can be
        re-synchronised, so its connection -- and only that one -- is
        closed."""
        self.messages_dropped += 1
        self.dropped_malformed += 1
        tracer = self._net_tracer
        if tracer is not None:
            peer = transport.get_extra_info("peername")
            tracer.emit(
                "net.drop", self.env.now,
                src=("%s:%s" % peer[:2]) if peer else "unknown",
                dst=self.node or "", type="unknown", reason="malformed",
                error=error,
            )
        transport.close()

    def _deliver_frame(self, inner: memoryview, frame_bytes: int) -> None:
        sent_at, src, dst, pos = _open_envelope(inner)
        names = dst.split(_NAME_SEP)
        body = inner[pos:]
        # Messages that will be discarded are discarded undecoded.
        if src in self._blocked:
            # Inbound half of a partition: frames already in flight (or
            # sent before the remote side learned of the cut) die here.
            self.messages_dropped += len(names)
            self.dropped_partition += len(names)
            for dst in names:
                self._trace_inbound_drop(src, dst, body, "partition")
            return
        decoded = False
        for dst in names:
            receiver = self._hosts.get(dst)
            if receiver is None or receiver.crashed:
                self.messages_dropped += 1
                self._trace_inbound_drop(src, dst, body, "dst_crashed")
                continue
            if not decoded:
                # Zero-copy decode, once for every name on the envelope:
                # the codec parses straight out of the receive buffer
                # through the view -- no body copy.  Decoded messages
                # own their leaves (codec contract), so the buffer is
                # free as soon as this returns.
                payload, context = self._decode_with_context(body)
                decoded = True
                self.bytes_delivered += frame_bytes
                msg_id = None if context is None else context.get("msg_id")
            now = self.env._now
            if msg_id is not None and self._context_tracer is not None:
                # The propagated context names the *origin* node and the
                # sender's node-local clock: the merge tool and the
                # lifecycle index can tie this arrival back to the send
                # even across clock domains.  Emitted as "meta" (not the
                # opt-in net firehose) because it carries the msg_id
                # correlation the default categories exist for, and only
                # for msg_id-bearing payloads so the volume stays at
                # value-message scale.
                self._context_tracer.emit(
                    "net.context", now,
                    (src, dst, context.get("origin"), msg_id,
                     context.get("ts")),
                )
            self.messages_delivered += 1
            inbox = receiver.inbox
            actor = receiver.actor
            # With the actor's mailbox parked on an empty inbox,
            # everything that came before has been handled: handle this
            # one here.  Otherwise it queues behind what the mailbox has
            # yet to drain.
            inline = actor is not None and inbox.waiting
            if not inline:
                inbox.put_nowait(Envelope(
                    src=src, dst=dst, payload=payload, size=frame_bytes,
                    sent_at=sent_at, delivered_at=now,
                    dst_incarnation=receiver.incarnation, duplicated=False,
                ))
            tracer = self._net_tracer
            if tracer is not None:
                tracer.emit(
                    "net.deliver", now, src=src, dst=dst,
                    type=type(payload).__name__,
                    latency=now - sent_at,
                    inbox_depth=len(inbox),
                )
            if inline:
                try:
                    actor.receive(payload, src)
                except Exception as failure:
                    # The handler's fault, not the frame's or the
                    # peer's: its actor dies of it; the connection, and
                    # the names behind it on this envelope, carry on.
                    actor.abort(failure)
