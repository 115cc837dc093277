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

Two ways to produce and consume those bytes live here, and the format
cannot tell them apart.  The *generic walk* (``_encode_value`` /
``_decode_value``) discovers each value's shape as it goes; it is the
path of every class registered without a plan and the reference the
tests compare against.  The hot shapes -- ``Propose``, ``Phase2a``,
``Phase2b``, ``RingAccept``, ``Decision``, ``AppValue``, ``SkipToken``
-- are registered with a *plan* (each field's wire type), compiled at
import into one encoder and one decoder per class that pack runs of
fixed-width fields through a single precomputed ``struct.Struct``; an
object that does not fit its plan (a ``None``, an int beyond int64, a
payload that is not ``bytes``) takes the walk, per object, with the same
result.  A batch body is many tokens of two classes, so the plans of
``AppValue`` and ``SkipToken`` are also compiled into one loop per
direction over a whole body, with no call per token.  The trace context
of a version-2 frame gets the same treatment: the transport's context
shape, and the same shape without a ``msg_id``, are written from a
per-origin template and recognised by their constant bytes.  See
"Compiled plans", "Batch loops" and "The trace context" below; nothing
selects between the paths but the value itself.

A ``Batch`` nested in a message is the one value that is not encoded
field by field.  It goes on the wire as an opaque, length-delimited
token body behind a fixed header::

    [13 u8][token_count u32][payload_bytes u64][positions u64]
    [body_len u32]  <body: token_count encoded tokens>

and the contract is *serialised once by whoever forms it, parsed once
per process that reads its tokens*.  Two parties form batches: a client
forms a *submission* batch of what it multicasts to one stream within
one loop turn (the ``token`` of its ``Propose``, a ``DYNAMIC`` field
that nests the same layout), which is parsed once, with its frame --
the coordinator deduplicates token by token, which is why it cannot
adopt the bytes as they are -- and the coordinator forms the *instance*
batch that Paxos orders, which each process hosting learners parses
once:

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
  of ``batch.tokens`` and the tuple is kept on the ``WireBatch``.  For
  an instance batch that read is the learner's that delivers the
  tokens.  The transport decodes a frame once for every destination it
  names, so the learners of one process share the ``WireBatch`` of a
  ``Decision`` (and the tokens in it) and the first to read parses for
  all; learners in different processes each parse their own copy.
  Damage inside an instance batch's body therefore surfaces at that
  reader, still as :class:`CodecError`;
* a ``Propose`` parses with its frame (``_received_propose``): its one
  reader, the coordinator, reads every token anyway, and the batch
  header must then be what its tokens add up to.  Damage inside a
  submission batch is a :class:`CodecError` of the frame, which the live
  transport counts and drops with the connection that sent it.  Damage
  that still decodes -- another stream's name, a value's ``msg_id`` --
  is the coordinator's to judge: it refuses a proposal for a stream it
  does not lead and orders the rest as submitted.

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
  scratch and joins the written region with its envelope into immutable
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
import functools
import inspect
import struct
from typing import Any, Callable, NamedTuple, Optional

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


# -- field wire types a plan may declare (see "Compiled plans") ---------

INT64 = "int64"        # a Python int that fits a signed 64-bit word
FLOAT = "float"
STR = "str"
BYTES = "bytes"
BATCH = "batch"        # a nested Batch / WireBatch
DYNAMIC = "dynamic"    # anything: dispatched on the value's class / tag


class _Spec:
    __slots__ = (
        "cls", "type_id", "fields", "construct", "obj_header", "plan",
        "encode_fields", "decode_fields",
    )

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
        self.construct = construct or cls
        self.obj_header = bytes((_T_OBJ,)) + _U16.pack(type_id)
        self.plan: tuple[str, ...] = ()   # each field's wire type, if declared
        # ``encode_fields(obj, out)`` / ``decode_fields(buf, pos) ->
        # (obj, pos)``: the generic walk, unless ``register`` is given a
        # plan and compiles the pair.
        self.encode_fields = functools.partial(_encode_fields, self)
        self.decode_fields = functools.partial(_decode_fields, self)


_BY_CLASS: dict[type, _Spec] = {}
_BY_ID: dict[int, _Spec] = {}
# The classes with a compiled plan: what a DYNAMIC field and a batch
# body look a value's class up in.  (Not _BY_CLASS: a nested Batch is
# registered, as the object form, but is never written that way.)
_PLANNED: dict[type, _Spec] = {}


def register(
    cls: type,
    type_id: int,
    fields: Optional[tuple[str, ...]] = None,
    construct: Optional[Callable[..., Any]] = None,
    plan: Optional[dict[str, str]] = None,
) -> type:
    """Register ``cls`` under the stable wire id ``type_id``.

    ``fields`` defaults to the dataclass fields or the ``_FIELDS``
    tuple of a ``FastMessage``.  ``construct`` overrides decoding
    (called with the fields as keywords) for classes whose ``__init__``
    does not mirror their fields.  ``plan`` maps every field, in order,
    to its wire type (:data:`INT64`, :data:`FLOAT`, :data:`STR`,
    :data:`BYTES`, :data:`BATCH` or :data:`DYNAMIC`) and compiles the
    class's encoder and decoder; a plan that does not name exactly the
    class's fields is a ``ValueError``.
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
    if plan is not None:
        if tuple(plan) != fields:
            raise ValueError(
                f"{cls.__name__}: plan declares {tuple(plan)}, "
                f"the class's fields are {fields}"
            )
        spec.plan = tuple(plan.values())
        spec.encode_fields, spec.decode_fields = _compile_plan(spec)
        _PLANNED[cls] = spec
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
        _encode_batch(value, out)
        return
    spec = _BY_CLASS.get(cls)
    if spec is None:
        raise CodecError(f"cannot encode unregistered type {cls.__name__}")
    out += spec.obj_header
    _encode_fields(spec, value, out)


def _encode_fields(spec: _Spec, obj: Any, out: bytearray) -> None:
    """The generic walk over one object's fields, in declaration order."""
    for name in spec.fields:
        _encode_value(getattr(obj, name), out)


def _encode_dynamic(value: Any, out: bytearray) -> None:
    """One value of undeclared type, from compiled code: through its
    class's plan when it has one, else the generic walk."""
    spec = _PLANNED.get(value.__class__)
    if spec is None:
        _encode_value(value, out)
    else:
        out += spec.obj_header
        spec.encode_fields(value, out)


def _encode_batch(batch: Any, out: bytearray) -> None:
    try:
        out += batch._wire
    except AttributeError:
        # First encode of a tokens-backed batch: memoise, so the
        # other frames that carry it copy instead of re-serialising.
        wire = batch._wire = encode_batch_wire(batch)
        out += wire


def encode_batch_wire(batch: Any) -> bytes:
    """Serialise a batch's header and tokens: the one place a batch's
    tokens are turned into bytes (see the module docstring)."""
    out = bytearray(_BATCH_HEADER.size)
    _encode_body(batch.tokens, out)
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


# -- the trace context ------------------------------------------------
#
# The transport attaches {"origin", "ts", "msg_id"} to a message that
# carries a msg_id; {"origin", "ts"} is that context without one.
# Those two shapes are written from a per-origin template plus one
# pack, and recognised by their constant bytes on the way in; every
# other context takes the generic walk, and all of them are the same
# bytes: ``[ctx_len u32]`` and the dict as ``_encode_value`` writes it.

def _generic_bytes(value: Any) -> bytes:
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


_CTX_KEYS2 = ("origin", "ts")
_CTX_KEYS3 = ("origin", "ts", "msg_id")
# Each key as the dict walk writes it, with the tag of its value.
_CTX_ORIGIN_KEY = _generic_bytes("origin") + bytes((_T_STR,))
_CTX_TS_KEY = _generic_bytes("ts") + bytes((_T_FLOAT,))
_CTX_MSG_ID_KEY = _generic_bytes("msg_id") + bytes((_T_INT64,))
_CTX_HEAD2 = bytes((_T_DICT,)) + _U32.pack(2) + _CTX_ORIGIN_KEY
_CTX_HEAD3 = bytes((_T_DICT,)) + _U32.pack(3) + _CTX_ORIGIN_KEY
# [dict tag, key count, "origin" key and str tag][origin length]
_CTX_HEAD = struct.Struct(f"!{len(_CTX_HEAD2)}sI")
# What follows the origin: ["ts" key][ts] and ["msg_id" key][msg_id]
_CTX_TAIL2 = struct.Struct(f"!{len(_CTX_TS_KEY)}sd")
_CTX_TAIL3 = struct.Struct(f"!{len(_CTX_TS_KEY)}sd{len(_CTX_MSG_ID_KEY)}sq")


@functools.lru_cache(maxsize=256)
def _context_templates(origin: str) -> tuple[bytes, bytes]:
    """``[ctx_len]`` through the origin's last byte, for the two- and
    the three-key context of one origin."""
    raw = origin.encode("utf-8")
    named = _U32.pack(len(raw)) + raw
    return tuple(
        _U32.pack(len(head) + len(named) + tail.size) + head + named
        for head, tail in (
            (_CTX_HEAD2, _CTX_TAIL2), (_CTX_HEAD3, _CTX_TAIL3),
        )
    )


def _encode_context(context: Any, out: bytearray) -> None:
    """Append the ``[ctx_len u32]<dict>`` section of a version-2 frame."""
    if context.__class__ is dict:
        keys = tuple(context)
        try:
            if keys == _CTX_KEYS3:
                origin, ts, msg_id = context.values()
                if (origin.__class__ is str and ts.__class__ is float
                        and msg_id.__class__ is int):
                    tail = _CTX_TAIL3.pack(
                        _CTX_TS_KEY, ts, _CTX_MSG_ID_KEY, msg_id
                    )
                    out += _context_templates(origin)[1]
                    out += tail
                    return
            elif keys == _CTX_KEYS2:
                origin, ts = context.values()
                if origin.__class__ is str and ts.__class__ is float:
                    out += _context_templates(origin)[0]
                    out += _CTX_TAIL2.pack(_CTX_TS_KEY, ts)
                    return
        except struct.error:
            pass    # a msg_id beyond int64: nothing written yet
    start = len(out)
    out += _U32_PLACEHOLDER
    _encode_value(context, out)
    _U32.pack_into(out, start, len(out) - start - _U32.size)


def _decode_context(frame: Any, pos: int, end: int) -> dict:
    """The context dict that fills ``frame[pos:end]`` exactly."""
    if end - pos > _CTX_HEAD.size:
        head, origin_len = _CTX_HEAD.unpack_from(frame, pos)
        origin_at = pos + _CTX_HEAD.size
        tail_at = origin_at + origin_len
        if head == _CTX_HEAD3 and end - tail_at == _CTX_TAIL3.size:
            ts_key, ts, id_key, msg_id = _CTX_TAIL3.unpack_from(
                frame, tail_at
            )
            if ts_key == _CTX_TS_KEY and id_key == _CTX_MSG_ID_KEY:
                return {
                    "origin": str(frame[origin_at:tail_at], "utf-8"),
                    "ts": ts, "msg_id": msg_id,
                }
        elif head == _CTX_HEAD2 and end - tail_at == _CTX_TAIL2.size:
            ts_key, ts = _CTX_TAIL2.unpack_from(frame, tail_at)
            if ts_key == _CTX_TS_KEY:
                return {
                    "origin": str(frame[origin_at:tail_at], "utf-8"),
                    "ts": ts,
                }
    value, consumed = _decode_value(frame, pos)
    if consumed != end:
        raise CodecError(
            f"trace-context length mismatch: consumed "
            f"{consumed - pos}, declared {end - pos}"
        )
    if not isinstance(value, dict):
        raise CodecError(
            f"trace context is not a dict: {type(value).__name__}"
        )
    return value


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
    spec.encode_fields(message, out)
    body_len = len(out) - start - _HEADER.size
    if trace_context is None:
        _HEADER.pack_into(out, start, WIRE_VERSION, spec.type_id, body_len)
    else:
        _HEADER.pack_into(
            out, start, CONTEXT_WIRE_VERSION, spec.type_id, body_len
        )
        _encode_context(trace_context, out)
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
        return _decode_batch(buf, pos - 1, _parse_batches)
    if tag == _T_OBJ:
        (type_id,) = _U16.unpack_from(buf, pos)
        spec = _BY_ID.get(type_id)
        if spec is None:
            raise CodecError(f"unknown type id {type_id}")
        return _decode_fields(spec, buf, pos + 2)
    if tag == _T_BIGINT:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return int.from_bytes(buf[pos:pos + n], "big", signed=True), pos + n
    raise CodecError(f"unknown value tag {tag}")


def _decode_fields(spec: _Spec, buf: _Buffer, pos: int) -> tuple[Any, int]:
    """The generic walk over one object's fields, in declaration order."""
    kwargs = {}
    for name in spec.fields:
        kwargs[name], pos = _decode_value(buf, pos)
    return spec.construct(**kwargs), pos


def _decode_dynamic(buf: _Buffer, pos: int) -> tuple[Any, int]:
    """One value of undeclared type, from compiled code: an object goes
    through its class's decoder (a plan when it has one).  A batch in it
    is parsed now: a submission is read at once, in a token it is damage."""
    global _parse_batches
    outer, _parse_batches = _parse_batches, True
    try:
        if buf[pos] != _T_OBJ:
            return _decode_value(buf, pos)
        (type_id,) = _U16.unpack_from(buf, pos + 1)
        spec = _BY_ID.get(type_id)
        if spec is None:
            raise CodecError(f"unknown type id {type_id}")
        return spec.decode_fields(buf, pos + 3)
    finally:
        _parse_batches = outer


def _decode_batch(buf: _Buffer, start: int, parse=False) -> tuple[Any, int]:
    """The ``WireBatch`` at ``buf[start]``, its body parsed if ``parse``."""
    _tag, count, payload_bytes, positions, body_len = (
        _BATCH_HEADER.unpack_from(buf, start)
    )
    end = start + _BATCH_HEADER.size + body_len
    # Every token takes at least its tag byte.
    if end > len(buf) or count > body_len:
        raise CodecError("corrupt batch header")
    batch = _WireBatch(bytes(buf[start:end]), count, payload_bytes, positions)
    if parse:
        batch.tokens
    return batch, end


# What parsing damaged bytes can raise besides CodecError.  struct.error
# / IndexError: truncation mid-field; ValueError covers
# UnicodeDecodeError from corrupt string bytes and a registered class's
# own constructor validation rejecting garbage field values.  All of it
# is one condition to the caller: bytes that cannot be trusted.
_CORRUPT = (struct.error, IndexError, ValueError, TypeError, OverflowError)
_parse_batches = False     # True while _decode_dynamic runs


def decode_batch_tokens(wire: bytes, count: int) -> tuple:
    """Parse the ``count`` tokens of a batch's wire form (header
    included, as :func:`encode_batch_wire` produced it).

    ``WireBatch.tokens`` calls this once, on first access.  A body that
    does not hold exactly ``count`` well-formed tokens raises
    :class:`CodecError`.
    """
    if wire.__class__ is not bytes:
        wire = bytes(wire)      # the loop's leaves are slices of it
    try:
        tokens, pos = _decode_body(wire, _BATCH_HEADER.size, count)
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
    message, pos = spec.decode_fields(frame, _HEADER.size)
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
        context = _decode_context(frame, end + 4, ctx_end)
    return message, context


def decode(frame: _Buffer) -> Any:
    """Decode one frame produced by :func:`encode` (context discarded)."""
    return decode_with_context(frame)[0]


# -- compiled plans -----------------------------------------------------
#
# The generic walk re-discovers, per object, a layout that is fixed per
# class: one ``if cls is ...`` chain, one recursive call and one struct
# call per field.  ``register(..., plan=...)`` declares the layout,
# ``_plan_source`` states it once as statements, and ``_compile_plan``
# makes them two straight-line functions (the batch loops below are the
# other user of the same statements) that
#
# * pack each run of fixed-width fields, *with* their tag bytes and the
#   tag and length of the ``str`` / ``bytes`` field that ends the run,
#   through one precomputed ``struct.Struct``;
# * copy ``str`` / ``bytes`` contents behind that length;
# * hand a ``BATCH`` field to the batch helpers and a ``DYNAMIC`` field
#   to ``_encode_dynamic`` / ``_decode_dynamic``.
#
# The bytes are the generic walk's, and so is everything the plan did
# not expect.  The encoder tests every field's class before it writes
# (a ``None``, a ``bool``, a ``str`` payload, a kvstore command) and
# un-writes on ``struct.error`` (an int beyond int64); the decoder
# compares each tag byte it unpacked with the one it declared, and
# treats running out of bytes mid-run as a mismatch too (an object with
# a ``None`` where the plan has an int64 is shorter than declared).
# Either way *that object* goes through ``_encode_fields`` /
# ``_decode_fields``, which also decide what truncated input raises; the
# entry points turn that into ``CodecError`` as before.

_FIXED_WIDTH = {                 # wire type -> struct code, tag, class
    INT64: ("q", _T_INT64, "int"),
    FLOAT: ("d", _T_FLOAT, "float"),
}
_LENGTH_PREFIXED = {             # wire type -> tag, class
    STR: (_T_STR, "str"),
    BYTES: (_T_BYTES, "bytes"),
}


class _PlanSource(NamedTuple):
    """One class's layout as statements, for the code generators below.

    The statements read ``obj`` / ``out`` (encoder) and ``buf`` / ``pos``
    / ``start`` (decoder); every name they bind is in ``bound``.
    """

    bound: dict[str, Any]
    loads: list[str]             # encoder: v<i> = obj.<field>
    check: str                   # encoder: every field's class, before any write
    converts: list[str]          # encoder: str -> utf-8, before any write
    writes: list[str]
    reads: list[str]             # decoder: ``decline`` where the bytes are not ours
    construct: str               # decoder: the object, from v<i>


def _plan_source(
    spec: _Spec, suffix: str, decline: str, batch: bool = False
) -> _PlanSource:
    """``spec``'s declared layout (``spec.plan``) as statements.
    ``suffix`` keeps the names it binds apart from another class's in
    the same function, and
    ``decline`` is the statement its reads run where a tag byte is not
    the declared one.  ``batch``: the statements of a batch loop, whose
    writes include the object's header and whose ``buf`` is ``bytes``
    (a slice of it is already an owned copy)."""
    packs: list[Callable[..., bytes]] = []
    unpacks: list[Callable[..., tuple]] = []    # one per fixed-width run
    checks: list[str] = []       # encoder: class tests, before any write
    converts: list[str] = []     # encoder: str -> utf-8, before any write
    writes: list[str] = []
    reads: list[str] = []
    run: list[tuple[str, int, str, str]] = []   # code, tag, source, target
    header_packed = False

    def close_run() -> None:
        nonlocal header_packed
        if not run:
            return
        index = len(unpacks)
        codes = "".join(f"B{code}" for code, *_ in run)
        layout = struct.Struct("!" + codes)
        unpacks.append(layout.unpack_from)
        packed = ", ".join(f"{tag}, {source}" for _, tag, source, _ in run)
        if batch and not writes:
            # The object's tag and type id ride in the first pack.
            header_packed = True
            packs.append(struct.Struct("!BH" + codes).pack)
            packed = f"{_T_OBJ}, {spec.type_id}, {packed}"
        else:
            packs.append(layout.pack)
        writes.append(f"out += pack{index}{suffix}({packed})")
        unpacked = ", ".join(f"t{j}, {run[j][3]}" for j in range(len(run)))
        wrong = " or ".join(f"t{j} != {run[j][1]}" for j in range(len(run)))
        reads.append(f"{unpacked} = unpack{index}{suffix}(buf, pos)")
        reads.append(f"if {wrong}: {decline}")
        reads.append(f"pos += {layout.size}")
        run.clear()

    for i, wire_type in enumerate(spec.plan):
        v = f"v{i}"
        if wire_type in _FIXED_WIDTH:
            code, tag, cls = _FIXED_WIDTH[wire_type]
            checks.append(f"{v}.__class__ is {cls}")
            run.append((code, tag, v, v))
        elif wire_type in _LENGTH_PREFIXED:
            tag, cls = _LENGTH_PREFIXED[wire_type]
            checks.append(f"{v}.__class__ is {cls}")
            raw = v
            if wire_type == STR:
                raw = f"r{i}"
                converts.append(f"{raw} = {v}.encode()")
            run.append(("I", tag, f"len({raw})", f"n{i}"))
            close_run()
            writes.append(f"out += {raw}")
            # Owned copies: a decoded leaf never aliases the buffer.
            leaf = f"buf[pos:pos + n{i}]"
            if wire_type == STR:
                leaf = f"{leaf}.decode()" if batch else f"str({leaf}, 'utf-8')"
            elif not batch:
                leaf = f"bytes({leaf})"
            reads.append(f"{v} = {leaf}")
            reads.append(f"pos += n{i}")
        elif wire_type == BATCH:
            close_run()
            checks.append(
                f"({v}.__class__ is _Batch or {v}.__class__ is _WireBatch)"
            )
            writes.append(f"_encode_batch({v}, out)")
            reads.append(f"if buf[pos] != {_T_BATCH}: {decline}")
            reads.append(f"{v}, pos = _decode_batch(buf, pos)")
        elif wire_type == DYNAMIC:
            close_run()
            writes.append(f"_encode_dynamic({v}, out)")
            reads.append(f"{v}, pos = _decode_dynamic(buf, pos)")
        else:
            raise ValueError(
                f"{spec.cls.__name__}: unknown wire type {wire_type!r}"
            )
    close_run()
    if batch and not header_packed:
        writes.insert(0, f"out += header{suffix}")

    fields = spec.fields
    # The registry's contract is keywords; positional is the same call,
    # and cheaper, where the constructor lists the fields in order.
    positional = tuple(
        parameter.name
        for parameter in inspect.signature(spec.construct).parameters.values()
        if parameter.kind in (
            parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD
        )
    )
    if positional[:len(fields)] == fields:
        arguments = [f"v{i}" for i in range(len(fields))]
    else:
        arguments = [f"{name}=v{i}" for i, name in enumerate(fields)]
    bound: dict[str, Any] = {
        f"spec{suffix}": spec, f"construct{suffix}": spec.construct,
    }
    if batch:
        bound[f"header{suffix}"] = spec.obj_header
    for index, (pack, unpack) in enumerate(zip(packs, unpacks)):
        bound[f"pack{index}{suffix}"] = pack
        bound[f"unpack{index}{suffix}"] = unpack
    return _PlanSource(
        bound=bound,
        loads=[f"v{i} = obj.{name}" for i, name in enumerate(fields)],
        check=" and ".join(checks) or "True",
        converts=converts,
        writes=writes,
        reads=reads,
        construct=f"construct{suffix}({', '.join(arguments)})",
    )


def _block(depth: int, lines: list[str]) -> list[str]:
    return ["    " * depth + line for line in lines]


def _bind(name: str, bound: dict[str, Any], body: list[str]) -> Any:
    """Compile ``body`` (the statements of a function ``bind`` taking
    the names in ``bound``) and call it with them."""
    source = "\n".join([f"def bind({', '.join(bound)}):", *body, ""])
    namespace: dict[str, Any] = {}
    # The module's globals are the functions' globals: the helpers (and
    # whatever a test patches over them) are looked up at call time.
    exec(compile(source, f"<codec {name}>", "exec"), globals(), namespace)
    return namespace["bind"](**bound)


def _compile_plan(
    spec: _Spec
) -> tuple[Callable[[Any, bytearray], None],
           Callable[[_Buffer, int], tuple[Any, int]]]:
    """``(encode_fields, decode_fields)`` for ``spec``'s declared layout."""
    plan = _plan_source(spec, "", "return _decode_fields(spec, buf, start)")
    return _bind(f"plan {spec.cls.__name__}", plan.bound, [
        "    def encode_fields(obj, out):",
        *_block(2, plan.loads),
        f"        if {plan.check}:",
        *_block(3, plan.converts),
        "            start = len(out)",
        "            try:",
        *_block(4, plan.writes),
        "                return",
        "            except struct.error:    # an int beyond int64",
        "                del out[start:]",
        "        _encode_fields(spec, obj, out)",
        "",
        "    def decode_fields(buf, pos):",
        "        start = pos",
        "        try:",
        *_block(3, plan.reads or ["pass"]),
        "        except struct.error:    # shorter than declared: not ours",
        "            return _decode_fields(spec, buf, start)",
        f"        return {plan.construct}, pos",
        "",
        "    return encode_fields, decode_fields",
    ])


# -- batch loops ----------------------------------------------------------
#
# A batch body is ``token_count`` tokens back to back, and through the
# plans each one costs a call into ``_encode_dynamic`` / ``_decode_dynamic``
# and another into its class's compiled function.  ``_compile_batch_loops``
# writes the statements of the token classes' plans into one loop per
# direction instead, dispatching on the class (encode) or on the type id
# after the object tag (decode).  A token of any other class, and one its
# plan declines, goes to ``_encode_dynamic`` / ``_decode_dynamic`` -- the
# per-token path, from the token's first byte -- so the bytes, and what
# damaged bytes raise, are the per-token path's.

_encode_body: Callable[[Any, bytearray], None]
_decode_body: Callable[[_Buffer, int, int], tuple[list, int]]


def _compile_batch_loops(
    specs: tuple[_Spec, ...]
) -> tuple[Callable[[Any, bytearray], None],
           Callable[[_Buffer, int, int], tuple[list, int]]]:
    """``(encode_body(tokens, out), decode_body(buf, pos, count) ->
    (tokens, pos))`` with ``specs``' plans inline, in that order."""
    bound: dict[str, Any] = {}
    encodes: list[str] = []
    decodes: list[str] = []
    for k, spec in enumerate(specs):
        declined = "token, pos = _decode_dynamic(buf, start - 3)"
        plan = _plan_source(
            spec, f"_{k}", f"{declined}; append(token); continue", batch=True
        )
        bound.update(plan.bound)
        bound[f"cls_{k}"] = spec.cls
        encodes += [
            f"{'elif' if k else 'if'} cls is cls_{k}:",
            *_block(1, plan.loads),
            f"    if {plan.check}:",
            *_block(2, plan.converts),
            "        start = len(out)",
            "        try:",
            *_block(3, plan.writes),
            "            continue",
            "        except struct.error:    # an int beyond int64",
            "            del out[start:]",
        ]
        decodes += [
            f"if type_id == {spec.type_id}:",
            "    start = pos = pos + 3",
            "    try:",
            *_block(2, plan.reads or ["pass"]),
            "    except struct.error:    # shorter than declared: not ours",
            f"        {declined}; append(token); continue",
            f"    append({plan.construct})",
            "    continue",
        ]
    return _bind("batch loops", bound, [
        "    def encode_body(tokens, out):",
        "        for obj in tokens:",
        "            cls = obj.__class__",
        *_block(3, encodes),
        "            _encode_dynamic(obj, out)",
        "",
        "    def decode_body(buf, pos, count):",
        "        tokens = []",
        "        append = tokens.append",
        "        for _ in range(count):",
        f"            if buf[pos] == {_T_OBJ}:",
        "                type_id = buf[pos + 1] << 8 | buf[pos + 2]",
        *_block(4, decodes),
        "            token, pos = _decode_dynamic(buf, pos)",
        "            append(token)",
        "        return tokens, pos",
        "",
        "    return encode_body, decode_body",
    ])


# -- registry ---------------------------------------------------------
#
# Ids are part of the wire format: never renumber, never reuse.  New
# classes take fresh ids at the end of their block.

_Batch: type
_WireBatch: type
_Propose: type


def _received_propose(stream: Any, token: Any) -> Any:
    """A ``Propose`` as the decoder builds it: a submission batch is
    parsed with its frame, and its header must be its tokens' counts.

    Its one reader, the coordinator, reads every token and orders what
    it derives from them, so parsing here costs nothing extra and a
    damaged submission is the frame's fault -- a ``CodecError`` the
    transport drops, counts and closes the connection on -- instead of
    an exception in the coordinator's handler.  The header check is what
    catches a damaged value size: one flipped to 2**40 would otherwise be
    padded into the frames of its instance.
    """
    if isinstance(token, _Batch):
        try:
            derived = _Batch(token.tokens)
            positions = derived.positions()
        except AttributeError as exc:   # a value where a token belongs
            raise CodecError(f"not a submission token: {exc!r}") from exc
        if (derived.payload_bytes != token.payload_bytes
                or positions != token.positions()):
            raise CodecError("submission batch header disagrees with its tokens")
    return _Propose(stream, token)


def _register_all() -> None:
    global _Batch, _WireBatch, _Propose, _encode_body, _decode_body

    from ..coordination import registry as reg
    from ..kvstore import commands as kvc
    from ..kvstore.partitioning import Partition, PartitionMap
    from ..paxos import messages as pm
    from ..paxos import types as pt

    # Paxos protocol messages: 1-19
    _Propose = pm.Propose
    register(
        pm.Propose, 1, plan={"stream": STR, "token": DYNAMIC},
        construct=_received_propose,
    )
    register(pm.Phase1a, 2)
    register(pm.Phase1b, 3)
    register(pm.Phase2a, 4, plan={
        "stream": STR, "ballot": INT64, "instance": INT64, "batch": BATCH,
    })
    register(pm.Phase2b, 5, plan={
        "stream": STR, "ballot": INT64, "instance": INT64, "acceptor": STR,
    })
    register(pm.RingAccept, 6, plan={
        "stream": STR, "ballot": INT64, "instance": INT64, "batch": BATCH,
        "accepted_by": INT64,
    })
    register(pm.Decision, 7, plan={
        "stream": STR, "instance": INT64, "batch": BATCH,
    })
    register(pm.RecoverRequest, 8)
    register(pm.RecoverReply, 9)
    register(pm.Trim, 10)
    register(pm.Heartbeat, 11)
    register(pm.HeartbeatAck, 12)

    # Tokens and batches: 20-29
    register(
        pt.AppValue, 20, fields=("payload", "size", "msg_id", "sender"),
        plan={"payload": BYTES, "size": INT64, "msg_id": INT64, "sender": STR},
    )
    register(pt.SkipToken, 21, plan={"count": INT64})
    # Values first: the loops test the classes in this order.
    _encode_body, _decode_body = _compile_batch_loops(
        (_BY_CLASS[pt.AppValue], _BY_CLASS[pt.SkipToken])
    )
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
