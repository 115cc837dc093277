"""Versioned binary wire codec for protocol messages.

The simulator passes message *objects* between actors, so slotted
hot-path messages never needed serialization; the live TCP backend
does.  This module gives every registered ``Message`` / ``FastMessage``
class (and the token/command types they carry) a stable binary form.

Frame layout (the transport adds its own outer length prefix)::

    version 1:  [1 u8][type_id u16][body_len u32]  <body>  <zero padding>
    version 2:  [2 u8][type_id u16][body_len u32]  <body>
                [ctx_len u32] <trace context>  <zero padding>

* ``version`` selects the frame generation.  Version 1 is the original
  format; version 2 appends a *trace context* -- a small dict carrying
  ``origin`` node id, the sender's node-clock timestamp and (when the
  payload has one) ``msg_id`` -- after the body, so a message's
  lifecycle can be followed across nodes (see ``docs/OBSERVABILITY.md``,
  "Live mode").  Encoding without a context still emits a version-1
  frame, byte-identical to the pre-context codec, and the decoder
  accepts every version in :data:`SUPPORTED_WIRE_VERSIONS`; version
  negotiation is therefore backward compatible in both directions for
  untraced traffic, and an old decoder rejects (never misparses) a
  context-bearing frame.
* ``type_id`` is the registered id of the top-level message class --
  ids are assigned explicitly (never ``enumerate`` over a dict) so the
  wire format does not silently change when a class is added.
* ``body_len`` delimits the body so the trace context and trailing
  padding can be located / skipped.

The body is a tagged, recursive value encoding (none/bool/int/float/
str/bytes/tuple/list/dict/frozenset plus registered objects by id with
their fields in declaration order).

A ``Batch`` nested in a message is the one value that is not encoded
field by field.  It goes on the wire as an opaque, length-delimited
token body behind a fixed header::

    [13 u8][token_count u32][payload_bytes u64][positions u64]
    [body_len u32]  <body: token_count encoded tokens>

and the contract is *serialise once, parse once per learner*:

* the first encode of a tokens-backed ``Batch`` serialises header and
  body with :func:`encode_batch_wire` and memoises the bytes on the
  object, so every further frame carrying it (``Phase2a`` to each
  acceptor, ``Decision`` to each learner) is a copy;
* the decoder checks the header against the frame and returns a
  ``WireBatch`` holding an owned copy of those bytes.  Its
  ``wire_size()`` inputs (``token_count``, ``payload_bytes``) and
  ``positions()`` come from the header, and encoding it again is a copy
  too -- an acceptor accepts, logs and forwards a batch, and an
  acceptor log answers ``Phase1b`` / ``RecoverReply``, without ever
  building a token object;
* the body is parsed by :func:`decode_batch_tokens` on the first read
  of ``batch.tokens``, i.e. at the learner that delivers them.  Damage
  inside a body therefore surfaces there, still as :class:`CodecError`.

A ``Batch`` in the older object form (type id 25 with ``tokens`` and
``payload_bytes`` fields, which is also how a *top-level* ``Batch``
frame is laid out) still decodes through the registry, to a plain
``Batch``; the encoder no longer emits it for nested batches.

Padding: each message models its own wire size (``wire_size()``) and
the simulator's bandwidth accounting is calibrated against it.  When
the compact encoding comes out *smaller* than the modeled size, the
frame is zero-padded up to ``wire_size()`` so live byte counts match
the model the figures were reproduced with; when it is larger (huge
batches), the frame is just its natural length.

Zero-copy contract (docs/PERFORMANCE.md, "Live datapath performance"):

* :func:`encode_into` appends a frame to a caller-owned ``bytearray``
  scratch instead of allocating per message; the transport keeps one
  scratch per link and snapshots the written region to immutable
  ``bytes`` before handing it to asyncio (an event loop -- uvloop in
  particular -- may hold a reference to a written buffer until the
  write completes, so mutable scratch must never be queued directly).
* :func:`decode` / :func:`decode_with_context` accept any bytes-like
  object including ``memoryview``, so the transport can decode straight
  out of its receive buffer without copying the body first.  Decoded
  messages never alias the input buffer: ``str``/``bytes`` leaves are
  materialised as owned objects, so the caller may recycle the buffer
  as soon as decode returns.
* Malformed input -- truncation at any byte offset, corrupt tags,
  unknown ids, garbage field values -- raises :class:`CodecError`,
  never a bare ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError``.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Optional

__all__ = [
    "CodecError",
    "CONTEXT_WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "WIRE_VERSION",
    "decode",
    "decode_batch_tokens",
    "decode_with_context",
    "encode",
    "encode_batch_wire",
    "encode_into",
    "peek_type",
    "register",
    "registered_classes",
]

WIRE_VERSION = 1                  # base format (no trace context)
CONTEXT_WIRE_VERSION = 2          # base + appended trace context
SUPPORTED_WIRE_VERSIONS = frozenset({WIRE_VERSION, CONTEXT_WIRE_VERSION})

_HEADER = struct.Struct("!BHI")   # version, type_id, body_len

# -- value tags -------------------------------------------------------

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT64 = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_OBJ = 10
_T_FROZENSET = 11
_T_BIGINT = 12
_T_BATCH = 13

_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
# tag, token_count, payload_bytes, positions, body_len
_BATCH_HEADER = struct.Struct("!BIQQI")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class CodecError(Exception):
    """Malformed frame, unknown type id, or unregistered class."""


class _Spec:
    __slots__ = ("cls", "type_id", "fields", "construct")

    def __init__(
        self,
        cls: type,
        type_id: int,
        fields: tuple[str, ...],
        construct: Optional[Callable[..., Any]] = None,
    ):
        self.cls = cls
        self.type_id = type_id
        self.fields = fields
        self.construct = construct or (lambda **kw: cls(**kw))


_BY_CLASS: dict[type, _Spec] = {}
_BY_ID: dict[int, _Spec] = {}


def register(
    cls: type,
    type_id: int,
    fields: Optional[tuple[str, ...]] = None,
    construct: Optional[Callable[..., Any]] = None,
) -> type:
    """Register ``cls`` under the stable wire id ``type_id``.

    ``fields`` defaults to the dataclass fields or the ``_FIELDS``
    tuple of a ``FastMessage``.  ``construct`` overrides decoding
    (called with the fields as keywords) for classes whose ``__init__``
    does not mirror their fields.
    """
    if not 0 < type_id <= 0xFFFF:
        raise ValueError(f"type_id {type_id} out of range")
    if type_id in _BY_ID:
        raise ValueError(
            f"type_id {type_id} already taken by {_BY_ID[type_id].cls.__name__}"
        )
    if cls in _BY_CLASS:
        raise ValueError(f"{cls.__name__} already registered")
    if fields is None:
        # _FIELDS first: FastMessage subclasses are dataclasses by
        # inheritance but carry no dataclass fields of their own.
        if getattr(cls, "_FIELDS", None):
            fields = tuple(cls._FIELDS)
        elif dataclasses.is_dataclass(cls):
            fields = tuple(f.name for f in dataclasses.fields(cls))
        else:
            raise ValueError(
                f"{cls.__name__}: cannot infer fields; pass them explicitly"
            )
    spec = _Spec(cls, type_id, fields, construct)
    _BY_CLASS[cls] = spec
    _BY_ID[type_id] = spec
    return cls


def registered_classes() -> list[type]:
    """All registered classes, in type-id order (for exhaustive tests)."""
    return [_BY_ID[i].cls for i in sorted(_BY_ID)]


# -- encoding ---------------------------------------------------------

def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
        return
    cls = value.__class__
    if cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if cls is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_INT64)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            out.append(_T_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
        return
    if cls is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
        return
    if cls is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
        return
    if cls is bytes:
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += value
        return
    if cls is tuple or cls is list:
        out.append(_T_TUPLE if cls is tuple else _T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
        return
    if cls is frozenset:
        out.append(_T_FROZENSET)
        out += _U32.pack(len(value))
        # Canonical order so equal sets encode identically.
        for item in sorted(value, key=repr):
            _encode_value(item, out)
        return
    if cls is dict:
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, val in value.items():
            _encode_value(key, out)
            _encode_value(val, out)
        return
    if cls is _WireBatch or cls is _Batch:
        try:
            out += value._wire
        except AttributeError:
            # First encode of a tokens-backed batch: memoise, so the
            # other frames that carry it copy instead of re-serialising.
            wire = value._wire = encode_batch_wire(value)
            out += wire
        return
    spec = _BY_CLASS.get(cls)
    if spec is None:
        raise CodecError(f"cannot encode unregistered type {cls.__name__}")
    out.append(_T_OBJ)
    out += _U16.pack(spec.type_id)
    for name in spec.fields:
        _encode_value(getattr(value, name), out)


def encode_batch_wire(batch: Any) -> bytes:
    """Serialise a batch's header and tokens: the one place a batch's
    tokens are turned into bytes (see the module docstring)."""
    out = bytearray(_BATCH_HEADER.size)
    for token in batch.tokens:
        _encode_value(token, out)
    try:
        _BATCH_HEADER.pack_into(
            out, 0, _T_BATCH, batch.token_count, batch.payload_bytes,
            batch.positions(), len(out) - _BATCH_HEADER.size,
        )
    except struct.error as exc:
        raise CodecError(f"batch header field out of range: {exc}") from exc
    return bytes(out)


_HEADER_PLACEHOLDER = bytes(_HEADER.size)
_U32_PLACEHOLDER = bytes(_U32.size)


def encode_into(
    message: Any, out: bytearray, trace_context: Optional[dict] = None
) -> int:
    """Append one encoded frame to ``out``; returns the frame's length.

    The zero-copy encode path: the caller owns ``out`` (typically a
    reused per-link scratch) and no intermediate body/frame bytearrays
    are allocated.  The header is written as a placeholder and patched
    once the body length is known, so the byte stream is identical to
    :func:`encode`'s.
    """
    spec = _BY_CLASS.get(message.__class__)
    if spec is None:
        raise CodecError(
            f"cannot encode unregistered type {message.__class__.__name__}"
        )
    start = len(out)
    out += _HEADER_PLACEHOLDER
    for name in spec.fields:
        _encode_value(getattr(message, name), out)
    body_len = len(out) - start - _HEADER.size
    if trace_context is None:
        _HEADER.pack_into(out, start, WIRE_VERSION, spec.type_id, body_len)
    else:
        _HEADER.pack_into(
            out, start, CONTEXT_WIRE_VERSION, spec.type_id, body_len
        )
        ctx_start = len(out)
        out += _U32_PLACEHOLDER
        _encode_value(trace_context, out)
        _U32.pack_into(out, ctx_start, len(out) - ctx_start - _U32.size)
    modeled = getattr(message, "wire_size", None)
    if modeled is not None:
        target = modeled()
        written = len(out) - start
        if written < target:
            out += bytes(target - written)
    return len(out) - start


def encode(message: Any, trace_context: Optional[dict] = None) -> bytes:
    """Encode a registered message into one padded, versioned frame.

    With ``trace_context`` (a small JSON-able dict: ``origin`` node,
    sender timestamp, ``msg_id``...) the frame is emitted as version
    :data:`CONTEXT_WIRE_VERSION` with the context appended after the
    body; without it the frame is byte-identical to the pre-context
    version-1 codec.  The padding up to the modeled ``wire_size`` is
    applied after the context, so bandwidth accounting is unchanged.
    """
    out = bytearray()
    encode_into(message, out, trace_context)
    return bytes(out)


# -- decoding ---------------------------------------------------------

_Buffer = Any  # bytes | bytearray | memoryview


def _decode_value(buf: _Buffer, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT64:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        # str(bytes-like, encoding) also accepts memoryview slices.
        return str(buf[pos:pos + n], "utf-8"), pos + n
    if tag == _T_BYTES:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos:pos + n]), pos + n
    if tag == _T_TUPLE or tag == _T_LIST or tag == _T_FROZENSET:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        return frozenset(items), pos
    if tag == _T_DICT:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        out = {}
        for _ in range(n):
            key, pos = _decode_value(buf, pos)
            val, pos = _decode_value(buf, pos)
            out[key] = val
        return out, pos
    if tag == _T_BATCH:
        start = pos - 1
        _tag, count, payload_bytes, positions, body_len = (
            _BATCH_HEADER.unpack_from(buf, start)
        )
        end = start + _BATCH_HEADER.size + body_len
        # Every token takes at least its tag byte.
        if end > len(buf) or count > body_len:
            raise CodecError("corrupt batch header")
        return _WireBatch(
            bytes(buf[start:end]), count, payload_bytes, positions
        ), end
    if tag == _T_OBJ:
        (type_id,) = _U16.unpack_from(buf, pos)
        pos += 2
        spec = _BY_ID.get(type_id)
        if spec is None:
            raise CodecError(f"unknown type id {type_id}")
        kwargs = {}
        for name in spec.fields:
            kwargs[name], pos = _decode_value(buf, pos)
        return spec.construct(**kwargs), pos
    if tag == _T_BIGINT:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return int.from_bytes(buf[pos:pos + n], "big", signed=True), pos + n
    raise CodecError(f"unknown value tag {tag}")


# What parsing damaged bytes can raise besides CodecError.  struct.error
# / IndexError: truncation mid-field; ValueError covers
# UnicodeDecodeError from corrupt string bytes and a registered class's
# own constructor validation rejecting garbage field values.  All of it
# is one condition to the caller: bytes that cannot be trusted.
_CORRUPT = (struct.error, IndexError, ValueError, TypeError, OverflowError)


def decode_batch_tokens(wire: bytes, count: int) -> tuple:
    """Parse the ``count`` tokens of a batch's wire form (header
    included, as :func:`encode_batch_wire` produced it).

    ``WireBatch.tokens`` calls this once, on first access.  A body that
    does not hold exactly ``count`` well-formed tokens raises
    :class:`CodecError`.
    """
    pos = _BATCH_HEADER.size
    tokens = []
    try:
        for _ in range(count):
            token, pos = _decode_value(wire, pos)
            tokens.append(token)
    except CodecError:
        raise
    except _CORRUPT as exc:
        raise CodecError(f"corrupt batch body: {exc!r}") from exc
    if pos != len(wire):
        raise CodecError(
            f"batch body length mismatch: consumed "
            f"{pos - _BATCH_HEADER.size}, declared "
            f"{len(wire) - _BATCH_HEADER.size}"
        )
    return tuple(tokens)


def peek_type(frame: _Buffer) -> str:
    """Class name of the message in ``frame``, read from the header
    alone (for a receiver that drops the frame without decoding it)."""
    if len(frame) < _HEADER.size:
        raise CodecError(f"frame too short ({len(frame)} bytes)")
    _version, type_id, _body_len = _HEADER.unpack_from(frame, 0)
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise CodecError(f"unknown type id {type_id}")
    return spec.cls.__name__


def decode_with_context(frame: _Buffer) -> tuple[Any, Optional[dict]]:
    """Decode one frame; returns ``(message, trace_context_or_None)``.

    Accepts every version in :data:`SUPPORTED_WIRE_VERSIONS`: version-1
    frames (no context section) decode with a ``None`` context, so a
    context-aware node interoperates with peers speaking the old
    format.

    ``frame`` may be any bytes-like object -- the live transport passes
    a ``memoryview`` into its receive buffer, so the body is parsed in
    place with no copy.  Any malformed input raises :class:`CodecError`.
    """
    try:
        return _decode_frame(frame)
    except CodecError:
        raise
    except _CORRUPT as exc:
        raise CodecError(f"corrupt frame: {exc!r}") from exc


def _decode_frame(frame: _Buffer) -> tuple[Any, Optional[dict]]:
    if len(frame) < _HEADER.size:
        raise CodecError(f"frame too short ({len(frame)} bytes)")
    version, type_id, body_len = _HEADER.unpack_from(frame, 0)
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise CodecError(
            f"wire version mismatch: got {version}, "
            f"expected one of {sorted(SUPPORTED_WIRE_VERSIONS)}"
        )
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise CodecError(f"unknown type id {type_id}")
    end = _HEADER.size + body_len
    if end > len(frame):
        raise CodecError("truncated frame body")
    pos = _HEADER.size
    kwargs = {}
    for name in spec.fields:
        kwargs[name], pos = _decode_value(frame, pos)
    if pos != end:
        raise CodecError(
            f"frame body length mismatch: consumed {pos - _HEADER.size}, "
            f"declared {body_len}"
        )
    context: Optional[dict] = None
    if version == CONTEXT_WIRE_VERSION:
        if len(frame) < end + 4:
            raise CodecError("truncated trace-context length")
        (ctx_len,) = _U32.unpack_from(frame, end)
        ctx_end = end + 4 + ctx_len
        if ctx_end > len(frame):
            raise CodecError("truncated trace context")
        value, consumed = _decode_value(frame, end + 4)
        if consumed != ctx_end:
            raise CodecError(
                f"trace-context length mismatch: consumed "
                f"{consumed - end - 4}, declared {ctx_len}"
            )
        if not isinstance(value, dict):
            raise CodecError(
                f"trace context is not a dict: {type(value).__name__}"
            )
        context = value
    return spec.construct(**kwargs), context


def decode(frame: _Buffer) -> Any:
    """Decode one frame produced by :func:`encode` (context discarded)."""
    return decode_with_context(frame)[0]


# -- registry ---------------------------------------------------------
#
# Ids are part of the wire format: never renumber, never reuse.  New
# classes take fresh ids at the end of their block.

_Batch: type
_WireBatch: type


def _register_all() -> None:
    global _Batch, _WireBatch

    from ..coordination import registry as reg
    from ..kvstore import commands as kvc
    from ..kvstore.partitioning import Partition, PartitionMap
    from ..paxos import messages as pm
    from ..paxos import types as pt

    # Paxos protocol messages: 1-19
    register(pm.Propose, 1)
    register(pm.Phase1a, 2)
    register(pm.Phase1b, 3)
    register(pm.Phase2a, 4)
    register(pm.Phase2b, 5)
    register(pm.RingAccept, 6)
    register(pm.Decision, 7)
    register(pm.RecoverRequest, 8)
    register(pm.RecoverReply, 9)
    register(pm.Trim, 10)
    register(pm.Heartbeat, 11)
    register(pm.HeartbeatAck, 12)

    # Tokens and batches: 20-29
    register(pt.AppValue, 20, fields=("payload", "size", "msg_id", "sender"))
    register(pt.SkipToken, 21)
    register(pt.SubscribeMsg, 22)
    register(pt.UnsubscribeMsg, 23)
    register(pt.PrepareMsg, 24)
    # The object form of a batch: what a top-level Batch frame uses and
    # what old peers nest.  Nested batches are emitted as _T_BATCH.
    register(pt.Batch, 25, fields=("tokens", "payload_bytes"))
    _Batch, _WireBatch = pt.Batch, pt.WireBatch

    # Key/value store commands and replies: 30-44
    register(kvc.PutCmd, 30)
    register(kvc.GetCmd, 31)
    register(kvc.DeleteCmd, 32)
    register(kvc.RangeCmd, 33)
    register(kvc.TxnCmd, 34)
    register(kvc.MapChangeCmd, 35)
    register(kvc.CommandReply, 36)
    register(kvc.SignalMsg, 37)
    register(kvc.StateTransferRequest, 38)
    register(kvc.StateTransferReply, 39)

    # Partition maps: 45-49
    register(Partition, 45)
    register(PartitionMap, 46)

    # Coordination registry: 50-59
    register(reg.RegistryGet, 50)
    register(reg.RegistryGetReply, 51)
    register(reg.RegistrySet, 52)
    register(reg.RegistrySetReply, 53)
    register(reg.RegistryWatch, 54)
    register(reg.WatchEvent, 55)

    # Deployment control plane: 60-69 (repro.deploy.wire is a leaf
    # module -- importing it does not pull the deployment plane in).
    from ..deploy import wire as dw

    register(dw.JoinLearner, 60)
    register(dw.JoinAck, 61)


_register_all()
