"""Wire-codec round-trip tests.

Every registered message class must survive encode -> decode with field
equality, and for ``Message`` subclasses the encoded frame must be
exactly ``wire_size()`` bytes (the codec pads compact encodings up to
the modeled size so live byte counts match the simulator's bandwidth
model).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.deploy.wire import JoinAck, JoinLearner

from repro.coordination.registry import (
    RegistryGet,
    RegistryGetReply,
    RegistrySet,
    RegistrySetReply,
    RegistryWatch,
    WatchEvent,
)
from repro.kvstore.commands import (
    CommandReply,
    DeleteCmd,
    GetCmd,
    MapChangeCmd,
    PutCmd,
    RangeCmd,
    SignalMsg,
    StateTransferReply,
    StateTransferRequest,
    TxnCmd,
)
from repro.kvstore.partitioning import Partition, PartitionMap
from repro.net.messages import Message
from repro.paxos.messages import (
    Decision,
    Heartbeat,
    HeartbeatAck,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Propose,
    RecoverReply,
    RecoverRequest,
    RingAccept,
    Trim,
)
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


def _value(payload="v", size=64, msg_id=7, sender="c1"):
    return AppValue(payload, size=size, msg_id=msg_id, sender=sender)


def _batch(n=2):
    return Batch(tuple(_value(payload=f"p{i}", msg_id=100 + i) for i in range(n)))


_PMAP = PartitionMap(
    version=3,
    partitions=(
        Partition(index=0, stream="s1", replicas=("r1", "r2")),
        Partition(index=1, stream="s2", replicas=("r3",)),
    ),
    shared_stream="s1",
)

# One representative instance per registered class, keyed by class.
CORPUS = {
    Propose: Propose("s1", _value()),
    Phase1a: Phase1a(stream="s1", ballot=3, from_instance=10),
    Phase1b: Phase1b(
        stream="s1", ballot=3, acceptor="s1/a1",
        accepted=((4, 2, _batch(1)), (5, 1, None)),
    ),
    Phase2a: Phase2a("s1", 3, 7, _batch(2)),
    Phase2b: Phase2b("s1", 3, 7, "s1/a2"),
    RingAccept: RingAccept("s1", 3, 7, _batch(2), accepted_by=1),
    Decision: Decision("s1", 7, _batch(3)),
    RecoverRequest: RecoverRequest(stream="s1", from_instance=0, to_instance=9),
    RecoverReply: RecoverReply(
        stream="s1", decided=((1, _batch(1)), (2, Batch((SkipToken(5),)))),
        trimmed_below=1, highest_decided=2, base_position=12,
    ),
    Trim: Trim(stream="s1", below=4),
    Heartbeat: Heartbeat(nonce=99),
    HeartbeatAck: HeartbeatAck(nonce=99),
    AppValue: _value(payload=b"\x00\x01raw", size=128),
    SkipToken: SkipToken(count=250),
    SubscribeMsg: SubscribeMsg(group="g1", stream="s2", request_id=41),
    UnsubscribeMsg: UnsubscribeMsg(group="g1", stream="s1", request_id=42),
    PrepareMsg: PrepareMsg(group="g2", stream="s2", request_id=43),
    Batch: Batch((_value(), SkipToken(3), SubscribeMsg("g1", "s2", 44))),
    PutCmd: PutCmd(key="k1", value="hello", value_size=1024, client="c1", cmd_id=5),
    GetCmd: GetCmd(key="k1", client="c1", cmd_id=6),
    DeleteCmd: DeleteCmd(key="k1", client="c1", cmd_id=7),
    RangeCmd: RangeCmd(start="a", end="m", client="c1", cmd_id=8),
    TxnCmd: TxnCmd(
        ops=(("k1", "put", "v"), ("k2", "add", 3), ("k3", "read", None)),
        client="c1", cmd_id=9,
    ),
    MapChangeCmd: MapChangeCmd(new_map=_PMAP, cmd_id=10),
    CommandReply: CommandReply(
        cmd_id=5, ok=True, result=[("k1", "v1")], partition=0, replica="r1"
    ),
    SignalMsg: SignalMsg(cmd_id=8, partition=1, replica="r3"),
    StateTransferRequest: StateTransferRequest(version=3, requester="r2"),
    StateTransferReply: StateTransferReply(version=3, rows=(("k1", "v1"),)),
    Partition: _PMAP.partitions[0],
    PartitionMap: _PMAP,
    RegistryGet: RegistryGet(key="pm", request_id=1),
    RegistryGetReply: RegistryGetReply(
        key="pm", request_id=1, value="partition-map-v3", version=3
    ),
    RegistrySet: RegistrySet(key="pm", value="partition-map-v4", request_id=2),
    RegistrySetReply: RegistrySetReply(key="pm", request_id=2, version=4),
    RegistryWatch: RegistryWatch(key="pm"),
    WatchEvent: WatchEvent(key="pm", value="partition-map-v4", version=4),
    JoinLearner: JoinLearner(stream="s2", learner="r3", add=True, join_id=12),
    JoinAck: JoinAck(join_id=12),
}


def _field_names(cls):
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    fast = getattr(cls, "_FIELDS", ())
    if fast:
        return tuple(fast)
    # Private slots are caches (Batch._wire), unset until first use.
    return tuple(
        slot for slot in getattr(cls, "__slots__", ())
        if not slot.startswith("_")
    )


def test_corpus_covers_every_registered_class():
    missing = [
        cls.__name__ for cls in codec.registered_classes() if cls not in CORPUS
    ]
    assert not missing, f"no corpus entry for registered classes: {missing}"


@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_round_trip_field_equality(cls):
    original = CORPUS[cls]
    decoded = codec.decode(codec.encode(original))
    assert type(decoded) is cls
    for name in _field_names(cls):
        assert getattr(decoded, name) == getattr(original, name), name
    assert decoded == original


@pytest.mark.parametrize(
    "cls",
    [c for c in codec.registered_classes() if issubclass(c, Message)],
    ids=lambda c: c.__name__,
)
def test_encoded_length_matches_wire_size(cls):
    original = CORPUS[cls]
    assert len(codec.encode(original)) == original.wire_size()


def test_version_byte_leads_every_frame():
    frame = codec.encode(Heartbeat(nonce=1))
    assert frame[0] == codec.WIRE_VERSION


def test_version_mismatch_rejected():
    frame = bytearray(codec.encode(Heartbeat(nonce=1)))
    frame[0] = codec.WIRE_VERSION + 1
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(frame))


def test_unknown_type_id_rejected():
    frame = bytearray(codec.encode(Heartbeat(nonce=1)))
    frame[1:3] = (0xFF, 0xFF)
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(frame))


def test_truncated_frame_rejected():
    frame = codec.encode(Decision("s1", 7, _batch(2)))
    with pytest.raises(codec.CodecError):
        codec.decode(frame[:10])


def test_unregistered_class_rejected():
    class NotRegistered:
        pass

    with pytest.raises(codec.CodecError):
        codec.encode(NotRegistered())


def test_padding_is_tolerated_and_bounded():
    # A compact message (small fields, generous modeled header) must be
    # padded up to its modeled size, and the padding must not confuse
    # the decoder.
    msg = Trim(stream="s1", below=4)
    frame = codec.encode(msg)
    assert len(frame) == msg.wire_size()
    assert codec.decode(frame) == msg


def test_big_integers_round_trip():
    huge = 1 << 200
    msg = Heartbeat(nonce=huge)
    assert codec.decode(codec.encode(msg)).nonce == huge


# -- trace-context versioning (wire v2) --------------------------------

def test_untraced_encode_is_byte_identical_v1():
    # No context -> version-1 frames, bit-for-bit what the pre-context
    # codec produced (old decoders and golden byte counts unaffected).
    for message in (Heartbeat(nonce=7), Trim(stream="s1", below=4)):
        frame = codec.encode(message)
        assert frame[0] == codec.WIRE_VERSION
        assert len(frame) == message.wire_size()


def test_context_frame_round_trips_message_and_context():
    context = {"origin": "n1", "ts": 1.25, "msg_id": 99}
    frame = codec.encode(Heartbeat(nonce=7), trace_context=context)
    assert frame[0] == codec.CONTEXT_WIRE_VERSION
    message, decoded = codec.decode_with_context(frame)
    assert message == Heartbeat(nonce=7)
    assert decoded == context
    # The plain decoder reads the same frame, discarding the context.
    assert codec.decode(frame) == Heartbeat(nonce=7)


def test_v1_frame_decodes_with_none_context():
    frame = codec.encode(Decision("s1", 7, _batch(2)))
    message, context = codec.decode_with_context(frame)
    assert context is None
    assert message == Decision("s1", 7, _batch(2))


@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_cross_version_round_trip_full_corpus(cls):
    # Every registered class survives both wire versions with field
    # equality -- the cross-version interop corpus.
    original = CORPUS[cls]
    context = {"origin": "n2", "ts": 0.5}
    for frame in (
        codec.encode(original),
        codec.encode(original, trace_context=context),
    ):
        decoded, _ = codec.decode_with_context(frame)
        assert type(decoded) is cls
        assert decoded == original


def test_context_padding_still_matches_wire_size_when_room():
    # Context rides inside the modeled padding when it fits, so the
    # bandwidth model sees the same frame size either way.
    message = Trim(stream="s1", below=4)
    plain = codec.encode(message)
    traced = codec.encode(message, trace_context={"origin": "n1"})
    assert len(plain) == message.wire_size()
    assert len(traced) >= len(plain)


def test_corrupt_context_rejected():
    frame = bytearray(
        codec.encode(Heartbeat(nonce=7), trace_context={"origin": "n1"})
    )
    truncated = bytes(frame[: _ctx_length_offset(frame) + 2])
    with pytest.raises(codec.CodecError):
        codec.decode_with_context(truncated)


def _ctx_length_offset(frame):
    import struct

    _version, _type_id, body_len = struct.unpack_from("!BHI", frame, 0)
    return struct.calcsize("!BHI") + body_len


def test_supported_versions_are_exactly_one_and_two():
    assert codec.SUPPORTED_WIRE_VERSIONS == frozenset({1, 2})
    with pytest.raises(codec.CodecError):
        bad = bytearray(codec.encode(Heartbeat(nonce=1)))
        bad[0] = 3
        codec.decode_with_context(bytes(bad))


# -- zero-copy encode/decode (PR 8) -------------------------------------

@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_encode_into_is_byte_identical_to_encode(cls):
    # The scratch-buffer encoder is the datapath's fast path; it must
    # produce bit-for-bit the same frames as ``encode`` so golden byte
    # counts and cross-version interop are unaffected.
    original = CORPUS[cls]
    context = {"origin": "n1", "ts": 2.5, "msg_id": 11}
    for ctx in (None, context):
        out = bytearray(b"prefix")   # encode_into appends, never clears
        n = codec.encode_into(original, out, trace_context=ctx)
        assert bytes(out[6:]) == codec.encode(original, trace_context=ctx)
        assert n == len(out) - 6


@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_decode_accepts_memoryview(cls):
    original = CORPUS[cls]
    frame = bytearray(codec.encode(original))
    decoded, context = codec.decode_with_context(memoryview(frame))
    assert context is None
    # Decoded leaves must be owned copies: scrambling the receive
    # buffer afterwards must not corrupt the decoded message.
    for i in range(len(frame)):
        frame[i] ^= 0xFF
    assert decoded == original


def test_decoded_strings_are_real_str_not_views():
    frame = codec.encode(Propose("s1", _value(payload="hello")))
    decoded = codec.decode(memoryview(bytearray(frame)))
    assert type(decoded.token.payload) is str
    assert type(decoded.stream) is str


# -- robustness fuzz: truncation and corruption (PR 8) ------------------

def _force_batches(message):
    """Parse every batch body a decoded message carries.

    Frame decode checks a batch's header against the frame and leaves
    the body opaque; damage inside it surfaces on the first read of
    ``tokens`` -- as CodecError too, which is what the fuzz tests pin.
    """
    carried = [getattr(message, "batch", None), getattr(message, "token", None)]
    for entry in getattr(message, "accepted", ()) or ():
        carried.append(entry[-1])
    for entry in getattr(message, "decided", ()) or ():
        carried.append(entry[-1])
    for batch in carried:
        if isinstance(batch, Batch):
            batch.tokens


@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_truncation_fuzz_raises_codec_error_only(cls):
    # Every prefix of every registered frame must either decode cleanly
    # (truncation inside the modeled padding) or raise CodecError --
    # never a raw struct.error / IndexError / UnicodeDecodeError.
    frame = codec.encode(CORPUS[cls])
    step = 1 if len(frame) <= 256 else 7
    for cut in range(0, len(frame), step):
        try:
            _force_batches(codec.decode_with_context(frame[:cut])[0])
        except codec.CodecError:
            pass


@pytest.mark.parametrize(
    "cls", codec.registered_classes(), ids=lambda c: c.__name__
)
def test_corruption_fuzz_raises_codec_error_only(cls):
    import random

    frame = codec.encode(CORPUS[cls])
    rng = random.Random(0xC0DEC + len(frame))
    positions = range(len(frame)) if len(frame) <= 128 else (
        rng.sample(range(len(frame)), 128)
    )
    for pos in positions:
        corrupt = bytearray(frame)
        corrupt[pos] ^= rng.randrange(1, 256)
        try:
            _force_batches(codec.decode_with_context(bytes(corrupt))[0])
        except codec.CodecError:
            pass


# -- opaque batch bodies: serialise once, parse once per learner ---------

_KV_BATCH = Batch((
    AppValue(PutCmd(key="k1", value="v", value_size=512, client="c1",
                    cmd_id=5), size=512, msg_id=300, sender="c1"),
    AppValue(TxnCmd(ops=(("k1", "put", "v"), ("k2", "read", None)),
                    client="c1", cmd_id=6), size=64, msg_id=301),
    AppValue(MapChangeCmd(new_map=_PMAP, cmd_id=7), size=256, msg_id=302),
))

BATCH_SHAPES = {
    "empty": Batch(()),
    "pure_skip": Batch((SkipToken(5), SkipToken(1 << 40))),
    "control": Batch((
        _value(), SkipToken(3), SubscribeMsg("g1", "s2", 44),
        UnsubscribeMsg("g1", "s1", 45), PrepareMsg("g2", "s2", 46),
    )),
    "bytes_8k": Batch(tuple(
        AppValue(bytes([i]) * 8192, size=8192, msg_id=200 + i, sender="c1")
        for i in range(3)
    )),
    "kvstore": _KV_BATCH,
    "explicit_payload_bytes": Batch((_value(),), payload_bytes=4096),
}


@pytest.fixture
def token_parses(monkeypatch):
    """Calls of the codec's token-materialise helper, by batch wire."""
    calls = []
    real = codec.decode_batch_tokens

    def counting(wire, count):
        calls.append(wire)
        return real(wire, count)

    monkeypatch.setattr(codec, "decode_batch_tokens", counting)
    return calls


@pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
def test_batch_shapes_round_trip_wire_backed(shape, token_parses):
    original = BATCH_SHAPES[shape]
    carriers = (
        RingAccept("s1", 3, 7, original, accepted_by=1),
        Decision("s1", 7, original),
        Phase2a("s1", 3, 7, original),
    )
    for carrier in carriers:
        decoded = codec.decode(codec.encode(carrier))
        batch = decoded.batch
        assert type(batch) is WireBatch
        # Everything an acceptor or a forward needs comes off the
        # header: no token is built.
        assert decoded.wire_size() == carrier.wire_size()
        assert batch.token_count == len(original.tokens)
        assert batch.payload_bytes == original.payload_bytes
        assert batch.positions() == original.positions()
        assert codec.encode(decoded) == codec.encode(carrier)
        assert token_parses == []
        # The learner's first read parses, once.
        assert batch.tokens == original.tokens
        assert batch.tokens is batch.tokens
        assert len(token_parses) == 1
        assert batch.is_pure_skip() == original.is_pure_skip()
        assert batch == original and original == batch
        assert hash(batch) == hash(original)
        assert batch == codec.decode(codec.encode(carrier)).batch
        assert repr(batch) == repr(original)
        del token_parses[:]


def test_tokens_backed_batch_is_serialised_once(monkeypatch):
    # Classic dissemination sends one batch in Phase2a to each acceptor
    # and in a Decision to each learner: the first encode memoises.
    encodes = []
    real = codec.encode_batch_wire

    def counting(batch):
        encodes.append(batch)
        return real(batch)

    monkeypatch.setattr(codec, "encode_batch_wire", counting)
    batch = _batch(3)
    frames = [codec.encode(Phase2a("s1", 3, 7, batch)) for _ in range(3)]
    frames += [codec.encode(Decision("s1", 7, batch)) for _ in range(2)]
    assert encodes == [batch]
    assert len(set(frames[:3])) == 1 and len(set(frames[3:])) == 1
    assert codec.decode(frames[-1]).batch == batch
    # A batch that is only ever passed as an object (the simulator)
    # never grows a serialised form.
    with pytest.raises(AttributeError):
        _batch(3)._wire


def test_old_object_form_batch_still_decodes():
    # Peers from before the opaque body nested a batch as a registered
    # object (type id 25: tokens, payload_bytes).  The registry still
    # reads that, into a plain tokens-backed Batch.
    import struct

    batch = _batch(2)
    body = bytearray()
    for value in ("s1", 7):
        codec._encode_value(value, body)
    body.append(codec._T_OBJ)
    body += struct.pack("!H", 25)
    codec._encode_value(batch.tokens, body)
    codec._encode_value(batch.payload_bytes, body)
    frame = struct.pack("!BHI", codec.WIRE_VERSION, 7, len(body)) + body
    decoded = codec.decode(bytes(frame))
    assert type(decoded) is Decision
    assert type(decoded.batch) is Batch
    assert decoded.batch == batch
    assert decoded.batch.payload_bytes == batch.payload_bytes


def test_batch_header_is_checked_at_frame_decode():
    import struct

    frame = bytearray(codec.encode(Decision("s1", 7, _batch(2))))
    start = bytes(frame).index(bytes([codec._T_BATCH]), 7)
    header = struct.Struct("!BIQQI")
    tag, count, payload, positions, body_len = header.unpack_from(frame, start)
    for damaged in (
        (tag, count, payload, positions, body_len + 10_000),   # past frame
        (tag, body_len + 1, payload, positions, body_len),     # count > bytes
    ):
        corrupt = bytearray(frame)
        header.pack_into(corrupt, start, *damaged)
        with pytest.raises(codec.CodecError):
            codec.decode(bytes(corrupt))


def test_damage_inside_a_batch_body_is_a_codec_error_at_materialisation():
    import struct

    frame = bytearray(codec.encode(Decision("s1", 7, _batch(2))))
    start = bytes(frame).index(bytes([codec._T_BATCH]), 7)
    first_token = start + struct.calcsize("!BIQQI")
    assert frame[first_token] == codec._T_OBJ
    frame[first_token] = 0xEE                  # no such value tag
    decoded = codec.decode(bytes(frame))       # header intact: decodes
    assert decoded.batch.token_count == 2
    with pytest.raises(codec.CodecError):
        decoded.batch.tokens
    # A count that disagrees with the body: trailing bytes are an error.
    frame = bytearray(codec.encode(Decision("s1", 7, _batch(2))))
    struct.pack_into("!I", frame, start + 1, 1)
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(frame)).batch.tokens


def test_peek_type_reads_the_header_only():
    frame = codec.encode(Decision("s1", 7, _batch(2)))
    assert codec.peek_type(frame) == "Decision"
    assert codec.peek_type(memoryview(frame)[:7]) == "Decision"
    traced = codec.encode(Heartbeat(nonce=1), trace_context={"origin": "n1"})
    assert codec.peek_type(traced) == "Heartbeat"
    with pytest.raises(codec.CodecError):
        codec.peek_type(frame[:6])
    with pytest.raises(codec.CodecError):
        codec.peek_type(b"\x01\xff\xff\x00\x00\x00\x00")


def test_batch_header_field_out_of_range_is_a_codec_error():
    oversized = Batch((_value(),), payload_bytes=1 << 70)
    with pytest.raises(codec.CodecError):
        codec.encode(Decision("s1", 7, oversized))
