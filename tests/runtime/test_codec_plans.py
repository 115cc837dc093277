"""The compiled codec writes and reads the bytes the generic walk does.

Two references, neither of them a round trip:

* the **frozen corpus** (``wire_corpus.txt``, generated at the commit
  before plans existed): today's codec must emit exactly those frames
  and decode them to the objects they were made from;
* the **interpreter**: the generic walk (``codec._encode_fields`` /
  ``codec._decode_fields``) is still the path of every undeclared class
  and of every object a plan declines, so for each declared class the
  plan is swapped out and the two codecs are compared -- over the corpus
  and over the inputs a plan must hand back (a ``None``, an int beyond
  int64, a non-``bytes`` payload, non-ASCII names, odd contexts).

The batch loops (``codec._encode_body`` / ``codec._decode_body``) are
the token classes' plans written inline; a Hypothesis property holds
them to the per-token path (``_encode_dynamic`` / ``_decode_dynamic``,
one token at a time) over token lists that reach every case a plan
declines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos.messages import (
    Decision,
    Phase2a,
    Phase2b,
    Propose,
    RingAccept,
)
from repro.paxos import types as paxos_types
from repro.paxos.types import (
    AppValue,
    Batch,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
    WireBatch,
)
from repro.runtime import codec

from . import wire_corpus
from .test_codec import _force_batches

ENTRIES = wire_corpus.entries()
FROZEN = wire_corpus.load()
PLANNED = sorted(codec._PLANNED, key=lambda cls: cls.__name__)


def _per_token_encode(tokens, out):
    """A batch body one token at a time, each through its class's plan."""
    for token in tokens:
        codec._encode_dynamic(token, out)


def _per_token_decode(buf, pos, count):
    tokens = []
    for _ in range(count):
        token, pos = codec._decode_dynamic(buf, pos)
        tokens.append(token)
    return tokens, pos


@contextlib.contextmanager
def interpreted():
    """The codec with every plan, and the batch loops that inline them,
    swapped for the generic walk."""
    saved = {
        spec: (spec.encode_fields, spec.decode_fields)
        for spec in codec._PLANNED.values()
    }
    loops = codec._encode_body, codec._decode_body
    for spec in saved:
        spec.encode_fields = functools.partial(codec._encode_fields, spec)
        spec.decode_fields = functools.partial(codec._decode_fields, spec)
    codec._encode_body, codec._decode_body = (
        _per_token_encode, _per_token_decode
    )
    try:
        yield
    finally:
        for spec, (encode_fields, decode_fields) in saved.items():
            spec.encode_fields = encode_fields
            spec.decode_fields = decode_fields
        codec._encode_body, codec._decode_body = loops


def _forget_wire(message):
    """Drop the memoised wire form of every tokens-backed batch the
    message carries, so the next encode walks the tokens again."""
    carried = [getattr(message, "batch", None), getattr(message, "token", None)]
    carried += [entry[-1] for entry in getattr(message, "accepted", ())]
    carried += [entry[-1] for entry in getattr(message, "decided", ())]
    for batch in carried:
        if type(batch) is Batch and hasattr(batch, "_wire"):
            del batch._wire
    return message


# -- the frozen corpus ---------------------------------------------------

def test_corpus_file_and_entries_name_the_same_frames():
    assert list(FROZEN) == list(ENTRIES)


def test_the_frames_frozen_before_the_plans_are_the_files_first_lines():
    # Shapes added since (a Propose carrying a batch) are appended; the
    # 139 lines generated before PR 13 are never rewritten.
    lines = wire_corpus.PATH.read_bytes().splitlines(keepends=True)
    assert len(lines) == len(ENTRIES)
    assert hashlib.sha256(b"".join(lines[:139])).hexdigest() == (
        "20b5a468afd6f107268337a1754f89bb4085fef02ade89977fa2f7496c5f7679"
    )


def test_the_hot_shapes_are_the_planned_ones():
    assert set(codec._PLANNED) == {
        Propose, Phase2a, Phase2b, RingAccept, Decision, AppValue, SkipToken,
    }


@pytest.mark.parametrize("name", list(ENTRIES))
def test_encode_emits_the_frozen_bytes(name):
    message, context = ENTRIES[name]
    assert codec.encode(message, trace_context=context) == FROZEN[name]
    out = bytearray(b"prefix")
    assert codec.encode_into(message, out, context) == len(FROZEN[name])
    assert bytes(out[6:]) == FROZEN[name]


@pytest.mark.parametrize("name", list(ENTRIES))
def test_frozen_bytes_decode_to_equal_objects(name):
    message, context = ENTRIES[name]
    for frame in (FROZEN[name], memoryview(bytearray(FROZEN[name]))):
        decoded, decoded_context = codec.decode_with_context(frame)
        assert type(decoded) is type(message)
        assert decoded == message
        assert decoded_context == context
        if context is not None:
            # Key order and value types too: the dict is re-emitted.
            assert list(decoded_context) == list(context)
            assert ([type(v) for v in decoded_context.values()]
                    == [type(v) for v in context.values()])
        assert codec.encode(decoded, trace_context=decoded_context) == (
            FROZEN[name]
        )


def test_frozen_corpus_covers_every_registered_class_both_versions():
    for cls in codec.registered_classes():
        assert FROZEN[cls.__name__][0] == codec.WIRE_VERSION
        assert FROZEN[f"{cls.__name__}+ctx3"][0] == codec.CONTEXT_WIRE_VERSION


# -- plan == interpreter -------------------------------------------------

@pytest.mark.parametrize("name", list(ENTRIES))
def test_plan_encode_equals_generic_encode(name):
    message, context = ENTRIES[name]
    planned = codec.encode(_forget_wire(message), trace_context=context)
    with interpreted():
        generic = codec.encode(_forget_wire(message), trace_context=context)
    assert planned == generic == FROZEN[name]


@pytest.mark.parametrize("name", list(ENTRIES))
def test_plan_decode_equals_generic_decode(name):
    frame = FROZEN[name]
    planned, planned_context = codec.decode_with_context(frame)
    _force_batches(planned)
    with interpreted():
        generic, generic_context = codec.decode_with_context(frame)
        _force_batches(generic)
    assert type(planned) is type(generic)
    assert planned == generic
    assert planned_context == generic_context


def test_context_section_is_the_generic_dict_encoding():
    # The template is not swapped by interpreted(): compare it with the
    # walk directly, for the two shapes it takes and the ones it must not.
    contexts = [wire_corpus.CTX2, wire_corpus.CTX3,
                *wire_corpus.ODD_CONTEXTS.values(),
                {"origin": "", "ts": -0.0},
                {"origin": "n" * 300, "ts": 1e300, "msg_id": -(1 << 63)},
                {"origin": "n1", "ts": float("inf"), "msg_id": (1 << 63) - 1},
                {"origin": "n1", "ts": 2.5, "msg_id": True},
                {"origin": b"n1", "ts": 2.5}]
    for context in contexts:
        out = bytearray()
        codec._encode_context(context, out)
        body = bytearray()
        codec._encode_value(context, body)
        assert bytes(out) == struct.pack("!I", len(body)) + bytes(body), context
        decoded = codec._decode_context(bytes(out), 4, len(out))
        assert decoded == context
        assert list(decoded) == list(context)
        assert [type(v) for v in decoded.values()] == [
            type(v) for v in context.values()
        ]


def test_batch_body_is_the_generic_token_encoding():
    for message, _context in ENTRIES.values():
        batch = getattr(message, "batch", None)
        if not isinstance(batch, Batch):
            continue
        wire = codec.encode_batch_wire(batch)
        body = bytearray()
        for token in batch.tokens:
            codec._encode_value(token, body)
        assert wire[struct.calcsize("!BIQQI"):] == bytes(body)
        with interpreted():
            assert codec.decode_batch_tokens(wire, batch.token_count) == (
                batch.tokens
            )
        assert codec.decode_batch_tokens(wire, batch.token_count) == (
            batch.tokens
        )


def test_planned_tokens_inside_undeclared_containers_round_trip():
    # A Phase1b / RecoverReply is walked generically; the batches it
    # lists still carry plan-encoded bodies.
    for name in ("Phase1b", "RecoverReply", "Batch"):
        message, _ = ENTRIES[name]
        decoded = codec.decode(FROZEN[name])
        _force_batches(decoded)
        assert decoded == message


@pytest.mark.parametrize("cls", PLANNED, ids=lambda c: c.__name__)
def test_a_declined_field_falls_back_for_that_object_only(cls):
    # Each field in turn takes a value its declared type cannot hold;
    # the plan must write what the walk writes, and read it back.
    spec = codec._PLANNED[cls]
    base, _ = ENTRIES[cls.__name__]
    odd_values = (None, True, 1 << 70, -(1 << 70), 1.5, "é", b"\xff", (1, "x"))
    for field in spec.fields:
        for odd in odd_values:
            fields = {name: getattr(base, name) for name in spec.fields}
            fields[field] = odd
            obj = spec.construct(**fields)
            out, ref = bytearray(b"kept"), bytearray(b"kept")
            spec.encode_fields(obj, out)
            codec._encode_fields(spec, obj, ref)
            assert out == ref, (field, odd)
            decoded, pos = spec.decode_fields(bytes(out), 4)
            generic, generic_pos = codec._decode_fields(spec, bytes(out), 4)
            assert pos == generic_pos == len(out)
            for name in spec.fields:
                assert getattr(decoded, name) == getattr(generic, name)
                assert type(getattr(decoded, name)) is type(
                    getattr(generic, name)
                )


def test_an_unregistered_token_is_still_a_codec_error():
    class NotRegistered:
        size = 16

    with pytest.raises(codec.CodecError):
        codec.encode(Propose("s1", NotRegistered()))
    out = bytearray(b"kept")
    with pytest.raises(codec.CodecError):
        codec.encode_into(Propose("s1", NotRegistered()), out)


# -- fuzz against the planned decoders -------------------------------------

def _decodes_or_codec_error(frame):
    try:
        _force_batches(codec.decode_with_context(frame)[0])
    except codec.CodecError:
        pass


def _fuzz_names():
    names = [cls.__name__ for cls in PLANNED]
    names += [f"{cls.__name__}+ctx3" for cls in PLANNED]
    names += ["Propose+ctx2", "RingAccept.batch60+ctx2"]
    names += [name for name in ENTRIES if name.startswith("Propose.")]
    return names


@pytest.mark.parametrize("name", _fuzz_names())
def test_truncation_and_corruption_raise_codec_error_only(name):
    frame = FROZEN[name]
    rng = random.Random(0xC0DEC + len(frame))
    step = 1 if len(frame) <= 400 else 13
    for cut in range(0, len(frame), step):
        _decodes_or_codec_error(frame[:cut])
    positions = range(len(frame)) if len(frame) <= 400 else (
        rng.sample(range(len(frame)), 400)
    )
    for pos in positions:
        for flip in (0xFF, rng.randrange(1, 256)):
            corrupt = bytearray(frame)
            corrupt[pos] ^= flip
            _decodes_or_codec_error(bytes(corrupt))
            _decodes_or_codec_error(memoryview(corrupt))


def test_truncated_batch_body_raises_codec_error_only():
    batch = ENTRIES["Decision.batch60+ctx2"][0].batch
    wire = codec.encode_batch_wire(batch)
    header = struct.calcsize("!BIQQI")
    for cut in range(header, len(wire), 5):
        with pytest.raises(codec.CodecError):
            codec.decode_batch_tokens(wire[:cut], batch.token_count)


@pytest.mark.parametrize("where", ["entry", "field", "declined"])
def test_a_batch_inside_a_batch_body_is_parsed_there(where):
    # Damage can turn a token's bytes into a well-formed batch header
    # over a corrupt body (tag 48 is no value tag): as an entry of the
    # body, as a field of a token in it, or where a token's plan
    # declines.  Both decoders must reject the body then, not return a
    # batch that raises on a later read.
    nested = struct.pack("!BIQQI", 13, 1, 0, 1, 1) + b"0"
    inner = WireBatch(nested, 1, 0, 1)
    body = bytearray()
    codec._encode_body([SkipToken(1)], body)
    if where == "entry":
        body += nested
    elif where == "field":
        codec._encode_dynamic(
            SubscribeMsg(group=inner, stream="s", request_id=0), body
        )
    else:
        codec._encode_dynamic(AppValue(payload=inner, size=1), body)
    wire = bytes(body)
    for decode_body in (codec._decode_body, _per_token_decode):
        with pytest.raises(codec.CodecError, match="unknown value tag 48"):
            decode_body(wire, 0, 2)
    header = bytes(struct.calcsize("!BIQQI"))
    with pytest.raises(codec.CodecError):
        codec.decode_batch_tokens(header + wire, 2)


# -- the batch loops are the plans -------------------------------------------

_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
# Around int64's edges and beyond them: the plans decline the latter.
_ANY_INT = st.one_of(
    _INT64, st.integers(-(1 << 80), 1 << 80),
    st.sampled_from([(1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1]),
)
_NAMES = st.text(max_size=12)      # non-ASCII included
_APP_VALUES = st.builds(
    AppValue,
    payload=st.one_of(
        st.binary(max_size=80), _NAMES, st.none(), _ANY_INT,
        st.tuples(st.integers(0, 9), _NAMES),
    ),
    size=st.one_of(st.integers(0, 1 << 20), st.booleans()),
    msg_id=st.one_of(_ANY_INT, st.floats(allow_nan=False)),
    sender=st.one_of(_NAMES, st.binary(max_size=8)),
)
_CONTROL = st.one_of(*(
    st.builds(cls, group=_NAMES, stream=_NAMES, request_id=_INT64)
    for cls in (SubscribeMsg, UnsubscribeMsg, PrepareMsg)
))
_TOKENS = st.lists(
    st.one_of(_APP_VALUES, st.builds(SkipToken, count=_ANY_INT), _CONTROL),
    max_size=12,
)


def _outcome(decode_body, wire, count):
    """What parsing ``wire`` as ``count`` tokens gives: their repr, or
    that the bytes are corrupt.  (A value decoded with no msg_id would
    be given a fresh one: here it is given the same one every time.)"""
    fresh = paxos_types.fresh_value_id
    paxos_types.fresh_value_id = lambda: -1
    try:
        tokens, pos = decode_body(wire, 0, count)
    except (codec.CodecError, *codec._CORRUPT):
        return "corrupt"
    finally:
        paxos_types.fresh_value_id = fresh
    return repr(tokens), pos


@given(tokens=_TOKENS, damage=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_the_batch_loops_are_the_per_token_plans(tokens, damage):
    body = bytearray(b"kept")
    codec._encode_body(tokens, body)
    reference = bytearray(b"kept")
    _per_token_encode(tokens, reference)
    assert body == reference
    wire = bytes(body[4:])
    decoded, pos = codec._decode_body(wire, 0, len(tokens))
    assert pos == len(wire)
    assert repr(decoded) == repr(tokens)
    for got, token in zip(decoded, tokens):
        assert type(got) is type(token)
        for name in getattr(type(token), "__slots__", ()):
            assert type(getattr(got, name)) is type(getattr(token, name))
    # Damaged bodies: the loop falls back where the per-token path does,
    # and through decode_batch_tokens every failure is a CodecError.
    header = bytes(struct.calcsize("!BIQQI"))
    for _ in range(8):
        corrupt = bytearray(wire)
        if corrupt and damage.random() < 0.7:
            corrupt[damage.randrange(len(corrupt))] ^= damage.randrange(1, 256)
        else:
            del corrupt[damage.randrange(len(corrupt) + 1):]
        corrupt = bytes(corrupt)
        assert _outcome(codec._decode_body, corrupt, len(tokens)) == (
            _outcome(_per_token_decode, corrupt, len(tokens))
        )
        try:
            codec.decode_batch_tokens(header + corrupt, len(tokens))
        except codec.CodecError:
            pass
    for cut in range(len(wire)):
        with pytest.raises(codec.CodecError):
            codec.decode_batch_tokens(header + wire[:cut], len(tokens))


# -- declaring a plan ----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Probe:
    name: str
    count: int


def _unregister(cls):
    spec = codec._BY_CLASS.pop(cls, None)
    if spec is not None:
        codec._BY_ID.pop(spec.type_id, None)
        codec._PLANNED.pop(cls, None)


@pytest.mark.parametrize("plan", [
    {"name": codec.STR},                                    # a field short
    {"name": codec.STR, "count": codec.INT64, "extra": codec.INT64},
    {"count": codec.INT64, "name": codec.STR},              # out of order
    {"name": codec.STR, "size": codec.INT64},               # a wrong name
])
def test_plan_that_does_not_match_the_fields_is_a_value_error(plan):
    try:
        with pytest.raises(ValueError, match="plan declares"):
            codec.register(_Probe, 0xFFF0, plan=plan)
        assert _Probe not in codec._BY_CLASS
        assert 0xFFF0 not in codec._BY_ID
    finally:
        _unregister(_Probe)


def test_unknown_wire_type_is_a_value_error():
    try:
        with pytest.raises(ValueError, match="unknown wire type"):
            codec.register(
                _Probe, 0xFFF0, plan={"name": codec.STR, "count": "varint"}
            )
        assert _Probe not in codec._BY_CLASS
    finally:
        _unregister(_Probe)


def test_a_newly_declared_class_is_compiled_and_interoperates():
    try:
        codec.register(
            _Probe, 0xFFF0, plan={"name": codec.STR, "count": codec.INT64}
        )
        spec = codec._BY_CLASS[_Probe]
        for probe in (_Probe("p", 3), _Probe("p", 1 << 80), _Probe(None, 3)):
            frame = codec.encode(probe)
            assert codec.decode(frame) == probe
            ref = bytearray()
            codec._encode_fields(spec, probe, ref)
            assert frame[7:] == bytes(ref)
        # ... also as a value inside a message that is itself planned.
        assert codec.decode(
            codec.encode(Propose("s1", _Probe("p", 3)))
        ).token == _Probe("p", 3)
    finally:
        _unregister(_Probe)


def test_entry_points_keep_their_names():
    # The ledger and test_live_batch_contract.py hook these by name.
    for name in ("encode", "encode_into", "decode", "decode_with_context",
                 "encode_batch_wire", "decode_batch_tokens", "peek_type"):
        assert callable(getattr(codec, name)), name
