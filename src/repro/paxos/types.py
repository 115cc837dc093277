"""Value types ordered by a Paxos stream.

A consensus instance decides a :class:`Batch`: either a batch of
application *tokens* or a skip.  Tokens are what the deterministic
merger of Elastic Paxos consumes; each token occupies one *stream
position*:

* :class:`AppValue` -- one application message (a multicast payload);
* :class:`SkipToken` -- ``count`` empty positions, proposed by the
  coordinator so an under-loaded stream still advances at the virtual
  rate λ (Multi-Ring Paxos);
* :class:`SubscribeMsg` / :class:`UnsubscribeMsg` -- Elastic Paxos
  control messages, ordered inside the streams themselves so that their
  stream position is the "timestamp" the merge point is computed from;
* :class:`PrepareMsg` -- the optimization hint of §V-C; delivered like
  an app message but carrying no application payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Union

__all__ = [
    "AppValue",
    "Batch",
    "PrepareMsg",
    "SkipToken",
    "SubscribeMsg",
    "Token",
    "UnsubscribeMsg",
    "WireBatch",
    "fresh_value_id",
    "next_value_id",
    "rewind_value_ids",
    "token_positions",
]

_ids = itertools.count(1)


def fresh_value_id() -> int:
    """Globally unique id for values created in this process."""
    return next(_ids)


def next_value_id() -> int:
    """The id :func:`fresh_value_id` hands out next (consumes none)."""
    global _ids
    upcoming = next(_ids)
    _ids = itertools.count(upcoming)
    return upcoming


def rewind_value_ids(upcoming: int) -> None:
    """Make ``upcoming`` the next id: a deterministic replay of a run
    mints the ids the run minted."""
    global _ids
    _ids = itertools.count(upcoming)


class AppValue:
    """One application message multicast to a stream.

    Hand-written (not a dataclass): values are minted on every client
    multicast and the frozen-dataclass construction protocol is
    measurable at that rate.  Immutable by convention.
    """

    __slots__ = ("payload", "size", "msg_id", "sender")

    def __init__(
        self,
        payload: Any,
        size: int = 128,                 # application payload bytes
        msg_id: Optional[int] = None,
        sender: str = "",
    ):
        self.payload = payload
        self.size = size
        self.msg_id = fresh_value_id() if msg_id is None else msg_id
        self.sender = sender

    def positions(self) -> int:
        return 1

    def __repr__(self) -> str:
        return (
            f"AppValue(payload={self.payload!r}, size={self.size!r}, "
            f"msg_id={self.msg_id!r}, sender={self.sender!r})"
        )

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not AppValue:
            return NotImplemented
        return (
            self.payload == other.payload
            and self.size == other.size
            and self.msg_id == other.msg_id
            and self.sender == other.sender
        )

    def __hash__(self) -> int:
        return hash((self.payload, self.size, self.msg_id, self.sender))


@dataclass(frozen=True, slots=True)
class SkipToken:
    """``count`` skipped stream positions (never delivered)."""

    count: int

    def positions(self) -> int:
        return self.count


@dataclass(frozen=True, slots=True)
class SubscribeMsg:
    """Request that replication group ``group`` subscribe to ``stream``.

    Ordered in both the new stream and one currently subscribed stream;
    ``request_id`` identifies the two copies as the same request.
    """

    group: str
    stream: str
    request_id: int = field(default_factory=fresh_value_id)

    def positions(self) -> int:
        return 1


@dataclass(frozen=True, slots=True)
class UnsubscribeMsg:
    """Request that ``group`` unsubscribe from ``stream``."""

    group: str
    stream: str
    request_id: int = field(default_factory=fresh_value_id)

    def positions(self) -> int:
        return 1


@dataclass(frozen=True, slots=True)
class PrepareMsg:
    """Hint (§V-C): ``group`` will soon subscribe to ``stream``;
    replicas should start recovering it in the background."""

    group: str
    stream: str
    request_id: int = field(default_factory=fresh_value_id)

    def positions(self) -> int:
        return 1


Token = Union[AppValue, SkipToken, SubscribeMsg, UnsubscribeMsg, PrepareMsg]


class Batch:
    """The value decided by one consensus instance.

    Hand-written for construction speed; ``token_count`` and
    ``payload_bytes`` are derived from ``tokens`` once here instead of
    being recomputed on every wire-size computation, and
    ``positions()`` once on first use (the coordinator's decision; the
    acceptors that trim the batch read it back).  Immutable by
    convention; equality, hash and repr go by ``tokens`` alone.

    ``_wire`` caches the serialised form (header + token body, see
    ``runtime/codec.py``): the live codec fills it on the first encode
    so a batch fanned out to N acceptors and M learners is serialised
    once.  It stays unset on the simulator, which never serialises.
    """

    __slots__ = ("tokens", "token_count", "payload_bytes", "_positions",
                 "_wire")

    def __init__(self, tokens: tuple = (), payload_bytes: int = -1):
        self.tokens = tokens
        self.token_count = len(tokens)
        if payload_bytes < 0:
            payload_bytes = sum(
                t.size for t in tokens if isinstance(t, AppValue)
            )
        self.payload_bytes = payload_bytes
        self._positions = -1

    def positions(self) -> int:
        positions = self._positions
        if positions < 0:
            positions = self._positions = token_positions(self.tokens)
        return positions

    def is_pure_skip(self) -> bool:
        return all(isinstance(t, SkipToken) for t in self.tokens)

    def __repr__(self) -> str:
        return f"Batch(tokens={self.tokens!r})"

    def __eq__(self, other: Any) -> Any:
        if not isinstance(other, Batch):
            return NotImplemented
        return self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)


_tokens_slot = Batch.tokens   # the slot descriptor WireBatch.tokens shadows


class WireBatch(Batch):
    """A :class:`Batch` as the live codec decodes it: serialised tokens.

    Acceptors, the coordinator and every forward only need the counts in
    the batch header and the bytes themselves, so the decoder hands out
    this form: ``token_count``, ``payload_bytes``, ``positions()`` and
    re-encoding (a copy of ``_wire``) never look inside the body.  The
    first read of ``tokens`` -- by the learner that delivers them, or by
    the codec as it decodes the ``Propose`` of a submission -- parses
    the body and keeps the result in the base class's slot.
    """

    __slots__ = ()

    def __init__(
        self, wire: bytes, token_count: int, payload_bytes: int,
        positions: int,
    ):
        self._wire = wire
        self.token_count = token_count
        self.payload_bytes = payload_bytes
        self._positions = positions

    @property
    def tokens(self) -> tuple:
        try:
            return _tokens_slot.__get__(self)
        except AttributeError:
            # Deferred import: the codec registers this module's classes
            # when it is imported.
            from ..runtime import codec

            tokens = codec.decode_batch_tokens(self._wire, self.token_count)
            _tokens_slot.__set__(self, tokens)
            return tokens


def token_positions(tokens) -> int:
    """Total stream positions occupied by ``tokens``."""
    return sum(t.positions() for t in tokens)
