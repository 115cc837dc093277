"""The frozen wire corpus: named messages and the frames they encode to.

``wire_corpus.txt`` holds one ``name hex`` line per entry of
:func:`entries`, generated once at the commit *before* the codec was
compiled into per-class plans (PR 13) and never regenerated since: it is
the byte-level statement of the wire format that the round-trip tests
cannot make (a symmetric format change passes every round trip).
``test_codec_plans.py`` asserts that today's codec emits exactly these
bytes and decodes them to equal objects.

A shape the format could always carry but nothing sent (PR 23: a
``Propose`` whose token is a batch) is *appended* -- new entries at the
end of :func:`entries`, new lines at the end of the file, the lines
before them untouched (``test_codec_plans.py`` pins their hash).  An
intended format change regenerates the file, and says so in its PR::

    PYTHONPATH=src python -m tests.runtime.wire_corpus

Everything here is deterministic: explicit ``msg_id`` / ``request_id``
everywhere, payload bytes from arithmetic, no clock.
"""

from __future__ import annotations

import pathlib
from typing import Any, Optional

from repro.kvstore.commands import PutCmd
from repro.paxos.messages import (
    Decision,
    Heartbeat,
    Phase2a,
    Phase2b,
    Propose,
    RingAccept,
)
from repro.paxos.types import (
    AppValue,
    Batch,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.runtime import codec

from .test_codec import CORPUS

PATH = pathlib.Path(__file__).with_name("wire_corpus.txt")

# The two shapes the transport builds (with and without a msg_id).
CTX2 = {"origin": "n2", "ts": 0.5}
CTX3 = {"origin": "n1", "ts": 2.5, "msg_id": 11}

# Contexts the template must hand to the generic walk.
ODD_CONTEXTS = {
    "origin_only": {"origin": "n1"},
    "extra_key": {"origin": "n1", "ts": 2.5, "msg_id": 11, "hop": 3},
    "reordered": {"ts": 2.5, "origin": "n1"},
    "int_ts": {"origin": "n1", "ts": 2},
    "big_msg_id": {"origin": "n1", "ts": 2.5, "msg_id": 1 << 70},
    "none_msg_id": {"origin": "n1", "ts": 2.5, "msg_id": None},
    "non_ascii_origin": {"origin": "nœud-1", "ts": 2.5, "msg_id": 11},
    "empty": {},
}


def _value(i: int) -> AppValue:
    payload = bytes((i * 7 + k) & 0xFF for k in range(64))
    return AppValue(payload, size=64, msg_id=1000 + i, sender="client")


def _batch60() -> Batch:
    """What a saturated coordinator closes: 60 values and a skip."""
    return Batch(tuple(_value(i) for i in range(60)) + (SkipToken(4),))


# Inputs a declared plan cannot take: each must come out exactly as the
# generic walk writes it.
FALLBACKS = {
    "Propose.token_none": Propose("s1", None),
    "Propose.big_msg_id": Propose(
        "s1", AppValue(b"x", size=64, msg_id=1 << 70, sender="c1")
    ),
    "Propose.negative_big_msg_id": Propose(
        "s1", AppValue(b"x", size=64, msg_id=-(1 << 70), sender="c1")
    ),
    "Propose.str_payload": Propose(
        "s1", AppValue("text", size=64, msg_id=5, sender="c1")
    ),
    "Propose.none_payload": Propose(
        "s1", AppValue(None, size=64, msg_id=5, sender="c1")
    ),
    "Propose.command_payload": Propose(
        "s1",
        AppValue(
            PutCmd(key="k1", value="v", value_size=512, client="c1", cmd_id=5),
            size=512, msg_id=6, sender="c1",
        ),
    ),
    "Propose.non_ascii_names": Propose(
        "flüx-1", AppValue(b"x", size=64, msg_id=5, sender="клиент")
    ),
    "Propose.skip_token": Propose("s1", SkipToken(250)),
    "Propose.bool_size": Propose(
        "s1", AppValue(b"x", size=True, msg_id=5, sender="c1")
    ),
    "Propose.float_msg_id": Propose(
        "s1", AppValue(b"x", size=64, msg_id=1.5, sender="c1")
    ),
    "Propose.bytes_stream": Propose(b"s1", _value(0)),
    "Phase2a.batch_none": Phase2a("s1", 3, 7, None),
    "Phase2a.big_ballot": Phase2a("s1", 1 << 64, 7, Batch((_value(1),))),
    "Phase2b.bytes_acceptor": Phase2b("s1", 3, 7, b"s1/a2"),
    "Phase2b.non_ascii_acceptor": Phase2b("s1", 3, 7, "s1/å2"),
    "RingAccept.none_accepted_by": RingAccept(
        "s1", 3, 7, Batch((_value(2),)), None
    ),
    "Decision.str_instance": Decision("s1", "7", Batch((_value(3),))),
    "SkipToken.big_count": SkipToken(1 << 70),
    "AppValue.empty_payload_and_sender": AppValue(
        b"", size=0, msg_id=0, sender=""
    ),
    "AppValue.int64_edges": AppValue(
        b"x", size=(1 << 63) - 1, msg_id=-(1 << 63), sender="c1"
    ),
}


# What a client's outbox sends when it holds more than one token for a
# stream: the tokens nested as a batch body.
SUBMISSION_BATCHES = {
    "Propose.batch_values": Propose(
        "s1", Batch(tuple(_value(i) for i in range(3)))
    ),
    "Propose.batch_mixed": Propose(
        "s1",
        Batch((
            _value(3),
            SubscribeMsg(group="g1", stream="s2", request_id=44),
            _value(4),
            UnsubscribeMsg(group="g1", stream="s1", request_id=45),
            PrepareMsg(group="g2", stream="s2", request_id=46),
        )),
    ),
}


def entries() -> dict[str, tuple[Any, Optional[dict]]]:
    """``name -> (message, trace_context)``, in file order."""
    out: dict[str, tuple[Any, Optional[dict]]] = {}
    for cls, message in CORPUS.items():
        out[cls.__name__] = (message, None)
        out[f"{cls.__name__}+ctx3"] = (message, CTX3)
    for cls in (Propose, Phase2b, RingAccept, Decision):
        out[f"{cls.__name__}+ctx2"] = (CORPUS[cls], CTX2)
    out["Phase2a.batch60"] = (Phase2a("s1", 3, 7, _batch60()), None)
    out["RingAccept.batch60+ctx2"] = (
        RingAccept("s1", 3, 7, _batch60(), accepted_by=2), CTX2
    )
    out["Decision.batch60+ctx2"] = (Decision("s1", 7, _batch60()), CTX2)
    for name, message in FALLBACKS.items():
        out[name] = (message, None)
        out[f"{name}+ctx3"] = (message, CTX3)
    for name, context in ODD_CONTEXTS.items():
        out[f"Heartbeat+ctx.{name}"] = (Heartbeat(nonce=7), context)
        out[f"Propose+ctx.{name}"] = (CORPUS[Propose], context)
    for name, message in SUBMISSION_BATCHES.items():
        out[name] = (message, None)
        out[f"{name}+ctx3"] = (message, CTX3)
    return out


def load() -> dict[str, bytes]:
    frames = {}
    for line in PATH.read_text().splitlines():
        name, _, hexed = line.partition(" ")
        frames[name] = bytes.fromhex(hexed)
    return frames


def regenerate() -> None:
    lines = [
        f"{name} {codec.encode(message, trace_context=context).hex()}"
        for name, (message, context) in entries().items()
    ]
    PATH.write_text("\n".join(lines) + "\n")
    print(f"{PATH}: {len(lines)} frames")


if __name__ == "__main__":
    regenerate()
