"""A malformed submission is the frame's fault, not the coordinator's.

A ``Propose`` parses its submission batch with its frame, and checks the
batch header against the tokens, so damage anywhere in the batch is a
``CodecError`` at frame decode: the transport's malformed rule counts
it once (``dropped_malformed``) and closes that connection; the
coordinator's handler never sees the damage.  Damage that still decodes
reaches the coordinator, which refuses a proposal for another stream
(``refused_proposals``) and orders any other like a submission.

A seeded corpus of mutated ``Propose(Batch)`` frames -- bit flips
anywhere in the frame body, truncation at every token boundary, counts
off by one, unknown tags -- goes over raw sockets, one connection per
frame, to a live cluster: each frame is counted once, as malformed or as
refused, or is ordered; no handler raises, and a later probe reaches
every replica.
"""

from __future__ import annotations

import asyncio
import random
import struct

from repro.paxos.messages import Propose
from repro.paxos.types import AppValue, Batch
from repro.runtime import codec

from .test_submission_batching import live_cluster, run

SEED = 0x5EED
# msg_ids no single bit flip brings near the process's own counter.
BASE_ID = (1 << 42) | (1 << 41) | (1 << 40)
BATCH_HEADER = struct.Struct("!BIQQI")    # tag, count, payload, positions, body


def _submission():
    """A four-value ``Propose(Batch)`` frame, where its batch starts and
    where each token of it starts."""
    values = tuple(
        AppValue(bytes((i * 7 + k) & 0xFF for k in range(16)), size=16,
                 msg_id=BASE_ID + i, sender="raw")
        for i in range(4)
    )
    frame = codec.encode(Propose(stream="s1", token=Batch(values)))
    batch_at = frame.index(bytes([codec._T_BATCH]), codec._HEADER.size)
    starts = [batch_at + BATCH_HEADER.size]
    for value in values:
        token = bytearray()
        codec._encode_dynamic(value, token)
        starts.append(starts[-1] + len(token))
    assert starts[-1] == len(frame)
    return frame, batch_at, starts


def _with_header(frame: bytes, batch_at: int, **fields) -> bytes:
    """``frame`` with some of its batch header's fields replaced."""
    out = bytearray(frame)
    names = ("tag", "count", "payload", "positions", "body")
    values = dict(zip(names, BATCH_HEADER.unpack_from(out, batch_at)))
    values.update(fields)
    BATCH_HEADER.pack_into(out, batch_at, *(values[name] for name in names))
    return bytes(out)


def _cut(frame: bytes, batch_at: int, at: int, count: int) -> bytes:
    """``frame`` ending at ``at``, its lengths (not its count) made
    consistent with that: only the token count disagrees."""
    body = at - codec._HEADER.size
    out = bytearray(frame[:at])
    struct.pack_into("!I", out, 3, body)
    return _with_header(
        bytes(out), batch_at, body=at - batch_at - BATCH_HEADER.size,
        count=count,
    )


def corpus() -> dict[str, bytes]:
    """Name -> mutated codec frame (at least 200 of them)."""
    frame, batch_at, starts = _submission()
    _tag, count, payload, positions, body = BATCH_HEADER.unpack_from(
        frame, batch_at)
    mutated: dict[str, bytes] = {}
    for index, at in enumerate(starts[1:-1], 1):
        mutated[f"truncated@token{index}"] = frame[:at]
        mutated[f"cut@token{index}"] = _cut(frame, batch_at, at, count)
    mutated["truncated@header"] = frame[:batch_at + BATCH_HEADER.size - 1]
    for delta in (-1, 1):
        mutated[f"count{delta:+}"] = _with_header(
            frame, batch_at, count=count + delta)
        mutated[f"body_len{delta:+}"] = _with_header(
            frame, batch_at, body=body + delta)
        mutated[f"payload_bytes{delta:+}"] = _with_header(
            frame, batch_at, payload=payload + delta)
        mutated[f"positions{delta:+}"] = _with_header(
            frame, batch_at, positions=positions + delta)
        framed = bytearray(frame)
        struct.pack_into("!I", framed, 3, len(frame) - 7 + delta)
        mutated[f"frame_body_len{delta:+}"] = bytes(framed)
    for index, at in enumerate(starts[:-1]):
        for offset in (0, 3):       # the object tag; its first field's tag
            tagged = bytearray(frame)
            tagged[at + offset] = 0xEE
            mutated[f"tag 0xEE@token{index}+{offset}"] = bytes(tagged)
    stream_at = frame.index(b"s1", codec._HEADER.size)
    for at in (stream_at, stream_at + 1):   # another stream, or not UTF-8
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[at] ^= 1 << bit
            mutated[f"stream@{at}.{bit}"] = bytes(flipped)
    rng = random.Random(SEED)
    while len(mutated) < 280:
        at = rng.randrange(codec._HEADER.size, len(frame))
        bit = rng.randrange(8)
        flipped = bytearray(frame)
        flipped[at] ^= 1 << bit
        mutated[f"flip@{at}.{bit}"] = bytes(flipped)
    return mutated


def _outcome(frame: bytes) -> str:
    """What the coordinator's host makes of ``frame``."""
    try:
        message = codec.decode(frame)
    except codec.CodecError:
        return "malformed"
    return "ordered" if message.stream == "s1" else "refused"


def test_the_corpus_mixes_all_outcomes():
    frames = corpus()
    assert len(frames) >= 200
    outcomes = [_outcome(frame) for frame in frames.values()]
    assert outcomes.count("malformed") >= 100
    assert outcomes.count("refused") >= 5
    assert outcomes.count("ordered") >= 20
    # What the bug report sent: a valid header, the first token's tag 0xEE.
    assert _outcome(frames["tag 0xEE@token0+0"]) == "malformed"


def test_mutated_submissions_are_counted_or_ordered_and_nothing_dies():
    frames = corpus()
    outcomes = [_outcome(frame) for frame in frames.values()]
    expected = outcomes.count("malformed")
    refused = outcomes.count("refused")

    async def send(address, coordinator, frame):
        _reader, writer = await asyncio.open_connection(*address)
        inner = (
            struct.pack("!d", 0.0)
            + struct.pack("!H", 4) + b"fuzz"
            + struct.pack("!H", len(coordinator)) + coordinator.encode()
            + frame
        )
        writer.write(struct.pack("!I", len(inner)) + inner)
        await writer.drain()
        writer.close()

    async def main():
        async with live_cluster() as cluster:
            loop = asyncio.get_running_loop()
            leader = cluster.directory["s1"].coordinator
            coordinator = leader.name
            transport = next(
                node.transport for node in cluster.nodes
                if coordinator in node.transport._hosts
            )
            before = transport.counters()["dropped_malformed"]

            def counted():
                return transport.counters()["dropped_malformed"] - before

            def settled():
                return (counted() >= expected
                        and leader.refused_proposals >= refused)

            for frame in frames.values():
                await send(transport.address, coordinator, frame)
            deadline = loop.time() + 10.0
            while not settled() and loop.time() < deadline:
                await asyncio.sleep(0.01)   # the poll of a wait on the effect
            # A wait for an absence: no frame is counted twice.
            await asyncio.sleep(0.2)
            assert counted() == expected
            assert leader.refused_proposals == outcomes.count("refused")
            assert not cluster.kernel.failures, cluster.kernel.failures
            probe = cluster.client.multicast("s1", b"probe", 5)
            deadline = loop.time() + 30.0
            while loop.time() < deadline and not all(
                probe.msg_id in [msg_id for *_at, msg_id in sequence]
                for sequence in cluster.sequences().values()
            ):
                await asyncio.sleep(0.01)   # the poll of a wait on the effect
            assert len(cluster.sequences()) == 2
            for replica, sequence in cluster.sequences().items():
                assert probe.msg_id in [m for *_at, m in sequence], replica
            assert not cluster.kernel.failures, cluster.kernel.failures

    run(main())
