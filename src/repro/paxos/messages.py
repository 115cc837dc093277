"""Paxos protocol messages.

Classic message flow (one stream):

* clients hand values to the coordinator with :class:`Propose`;
* the coordinator runs Phase 1 once per ballot over an open-ended
  instance window (:class:`Phase1a` / :class:`Phase1b`);
* each instance is then decided with a single round trip
  (:class:`Phase2a` / :class:`Phase2b`) to a quorum of acceptors;
* :class:`Decision` carries the decided batch to the learners.

Ring dissemination replaces the 2a/2b fan-out: the coordinator sends
:class:`RingAccept` to the first acceptor, each acceptor accepts and
forwards, and the last acceptor emits the :class:`Decision`.

Recovery (:class:`RecoverRequest` / :class:`RecoverReply`) lets a
learner fetch decided instances from acceptors -- this is the mechanism
a newly-subscribing Elastic Paxos replica uses to catch up on a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.messages import FastMessage, Message, WIRE_HEADER_BYTES
from .types import Batch

__all__ = [
    "Decision",
    "Phase1a",
    "Phase1b",
    "Phase2a",
    "Phase2b",
    "Propose",
    "RecoverRequest",
    "RecoverReply",
    "RingAccept",
    "Trim",
]


def _batch_wire_size(batch: Optional[Batch]) -> int:
    if batch is None:
        return 1
    # Both counts are plain attributes (precomputed at construction or
    # read from the wire header): sizing never parses a decoded batch.
    return 16 + 16 * batch.token_count + batch.payload_bytes


class Propose(FastMessage):
    """A client (or the multicast layer) submits one token for ordering,
    or a :class:`Batch` of the tokens it submitted together."""

    __slots__ = ("stream", "token")
    _FIELDS = ("stream", "token")

    def __init__(self, stream: str, token: object):
        self.stream = stream
        self.token = token   # a Token or a Batch of them; opaque to Paxos

    def wire_size(self) -> int:
        token = self.token
        if isinstance(token, Batch):
            return WIRE_HEADER_BYTES + _batch_wire_size(token)
        return WIRE_HEADER_BYTES + getattr(token, "size", 16)


@dataclass(frozen=True, slots=True)
class Phase1a(Message):
    """Coordinator asks acceptors to promise ballot ``ballot`` for all
    instances >= ``from_instance``."""

    stream: str
    ballot: int
    from_instance: int


@dataclass(frozen=True, slots=True)
class Phase1b(Message):
    """Acceptor's promise, reporting previously accepted values."""

    stream: str
    ballot: int
    acceptor: str
    # {instance: (vrnd, batch)} for instances >= from_instance
    accepted: tuple  # tuple of (instance, vrnd, Batch)

    def wire_size(self) -> int:
        return WIRE_HEADER_BYTES + sum(
            24 + _batch_wire_size(b) for (_i, _r, b) in self.accepted
        )


class Phase2a(FastMessage):
    """Coordinator proposes ``batch`` for ``instance`` at ``ballot``."""

    __slots__ = ("stream", "ballot", "instance", "batch")
    _FIELDS = ("stream", "ballot", "instance", "batch")

    def __init__(self, stream: str, ballot: int, instance: int, batch: Batch):
        self.stream = stream
        self.ballot = ballot
        self.instance = instance
        self.batch = batch

    def wire_size(self) -> int:
        return WIRE_HEADER_BYTES + 16 + _batch_wire_size(self.batch)


class Phase2b(FastMessage):
    """Acceptor's acceptance of (ballot, instance)."""

    __slots__ = ("stream", "ballot", "instance", "acceptor")
    _FIELDS = ("stream", "ballot", "instance", "acceptor")

    def __init__(self, stream: str, ballot: int, instance: int, acceptor: str):
        self.stream = stream
        self.ballot = ballot
        self.instance = instance
        self.acceptor = acceptor

    def wire_size(self) -> int:
        # Generic estimate, flattened: header + two ints + two strings.
        return WIRE_HEADER_BYTES + 16 + len(self.stream) + len(self.acceptor)


class RingAccept(FastMessage):
    """Phase 2 around the ring: accept and forward.

    ``accepted_by`` counts acceptors that have already accepted; when it
    reaches the ring size the value is decided.
    """

    __slots__ = ("stream", "ballot", "instance", "batch", "accepted_by")
    _FIELDS = ("stream", "ballot", "instance", "batch", "accepted_by")

    def __init__(
        self, stream: str, ballot: int, instance: int, batch: Batch,
        accepted_by: int,
    ):
        self.stream = stream
        self.ballot = ballot
        self.instance = instance
        self.batch = batch
        self.accepted_by = accepted_by

    def wire_size(self) -> int:
        batch = self.batch   # never None on the ring path
        return (
            WIRE_HEADER_BYTES + 36 + 16 * batch.token_count
            + batch.payload_bytes
        )


class Decision(FastMessage):
    """A decided instance, disseminated to learners."""

    __slots__ = ("stream", "instance", "batch")
    _FIELDS = ("stream", "instance", "batch")

    def __init__(self, stream: str, instance: int, batch: Batch):
        self.stream = stream
        self.instance = instance
        self.batch = batch

    def wire_size(self) -> int:
        batch = self.batch   # never None in a decision
        return (
            WIRE_HEADER_BYTES + 24 + 16 * batch.token_count
            + batch.payload_bytes
        )


@dataclass(frozen=True, slots=True)
class RecoverRequest(Message):
    """Learner asks an acceptor for decided instances in
    ``[from_instance, to_instance)`` (``to_instance`` = -1 means "all
    decided so far")."""

    stream: str
    from_instance: int
    to_instance: int = -1


@dataclass(frozen=True, slots=True)
class RecoverReply(Message):
    """Acceptor's reply: decided ``(instance, Batch)`` pairs plus the
    acceptor's trim horizon and highest decided instance."""

    stream: str
    decided: tuple  # tuple of (instance, Batch)
    trimmed_below: int
    highest_decided: int
    # Stream positions covered by the trimmed prefix; a fresh learner
    # seeds its token log here so positions stay absolute.
    base_position: int = 0

    def wire_size(self) -> int:
        return WIRE_HEADER_BYTES + sum(
            12 + _batch_wire_size(b) for (_i, b) in self.decided
        )


@dataclass(frozen=True, slots=True)
class Trim(Message):
    """Instruct an acceptor to drop decided instances below ``below``."""

    stream: str
    below: int


@dataclass(frozen=True, slots=True)
class Heartbeat(Message):
    """Failure-detector probe."""

    nonce: int


@dataclass(frozen=True, slots=True)
class HeartbeatAck(Message):
    """Reply to a :class:`Heartbeat`."""

    nonce: int
