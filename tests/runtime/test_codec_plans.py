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
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import random
import struct

import pytest

from repro.paxos.messages import (
    Decision,
    Phase2a,
    Phase2b,
    Propose,
    RingAccept,
)
from repro.paxos.types import AppValue, Batch, SkipToken
from repro.runtime import codec

from . import wire_corpus
from .test_codec import _force_batches

ENTRIES = wire_corpus.entries()
FROZEN = wire_corpus.load()
PLANNED = sorted(codec._PLANNED, key=lambda cls: cls.__name__)


@contextlib.contextmanager
def interpreted():
    """The codec with every plan swapped for the generic walk."""
    saved = {
        spec: (spec.encode_fields, spec.decode_fields)
        for spec in codec._PLANNED.values()
    }
    for spec in saved:
        spec.encode_fields = functools.partial(codec._encode_fields, spec)
        spec.decode_fields = functools.partial(codec._decode_fields, spec)
    try:
        yield
    finally:
        for spec, (encode_fields, decode_fields) in saved.items():
            spec.encode_fields = encode_fields
            spec.decode_fields = decode_fields


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
