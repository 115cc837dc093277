"""Static deterministic merge (Multi-Ring Paxos).

This is the merger Elastic Paxos replaces: the set of streams is fixed
at construction and never changes.  Kept as (a) the baseline the paper
improves on and (b) the simplest statement of the round-robin delivery
rule that :mod:`repro.multicast.elastic` extends.

The merger consumes one stream *position* per round-robin turn.  Values
are delivered; skip tokens and control messages are consumed silently.
Because every stream is topped up to the virtual rate λ with skip
tokens (:mod:`repro.paxos.config`), delivery never stalls on an idle
stream.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..paxos.types import AppValue, SkipToken, Token
from .stream import TokenLog

__all__ = ["StaticMerger", "StreamCursor"]


class StreamCursor:
    """A replica's read position in one stream's token log, and that
    log's one reader: what it has read, the log may drop."""

    __slots__ = (
        "name", "log", "position", "index_hint",
        "_cache_token", "_cache_start", "_cache_end",
    )

    def __init__(self, name: str, log: Optional[TokenLog] = None):
        self.name = name
        self.log = log if log is not None else TokenLog()
        self.log.attach_reader()
        self.position = self.log.base      # next position to consume
        self.index_hint = 0                # token index cache for O(1) lookup
        # Last peeked token with its [start, end) position range.  The
        # position only moves forward, the log drops only tokens below
        # it, and it is never rebased once it holds tokens, so the
        # cached triple stays valid while the cursor is inside it;
        # re-peeking inside a wide token (a multi-position skip) hits
        # the cache instead of re-running ``token_covering``.
        self._cache_token: Optional[Token] = None
        self._cache_start = 0
        self._cache_end = 0

    def peek(self) -> Optional[Token]:
        """Token at the current position, or None if not yet decided.
        On a cache miss it releases what lies below the position."""
        pos = self.position
        if self._cache_start <= pos < self._cache_end:
            return self._cache_token
        log = self.log
        if pos < log._base:
            # The log was rebased after this cursor was created (the
            # acceptors trimmed their prefix); positions below the base
            # are unknowable and, for a fresh subscriber, discarded.
            self.position = pos = log.base
        token, index = log.token_covering(pos, self.index_hint)
        index -= log.release(pos, index)
        self.index_hint = index
        if token is not None:
            start = log.start_of(index)
            self._cache_token = token
            self._cache_start = start
            self._cache_end = start + token.positions()
        return token

    def token_end(self, token: Token) -> int:
        """End position (exclusive) of the token under the cursor."""
        return self.log.start_of(self.index_hint) + token.positions()

    def skip_run(self) -> int:
        """Positions left in the :class:`SkipToken` under the cursor; 0
        when it sits on any other token or past the decided prefix."""
        if isinstance(self.peek(), SkipToken):
            return self._cache_end - self.position
        return 0

    def value_run(self) -> list[AppValue]:
        """The decided run of :class:`AppValue` tokens from the one under
        the cursor on (one position each, so they sit at the positions
        from ``position`` on), as a slice of the log; the cursor must
        have just peeked the first of them."""
        tokens = self.log._tokens
        start = end = self.index_hint
        count = len(tokens)
        while end < count and tokens[end].__class__ is AppValue:
            end += 1
        return tokens[start:end]


class StaticMerger:
    """Deterministic round-robin merge over a fixed set of streams."""

    def __init__(
        self,
        streams: dict[str, TokenLog],
        deliver: Callable[[AppValue, str, int], None],
    ):
        if not streams:
            raise ValueError("a merger needs at least one stream")
        self._cursors = {
            name: StreamCursor(name, log) for name, log in streams.items()
        }
        self.sigma: list[str] = sorted(streams)
        self.deliver = deliver
        self._rr = 0
        self._pumping = False
        self.delivered_per_stream = {name: 0 for name in streams}

    @property
    def positions(self) -> dict[str, int]:
        return {name: c.position for name, c in self._cursors.items()}

    def notify(self, stream: str) -> None:
        """New tokens are available on ``stream``; drain as far as
        possible.  The merge only ever waits on the stream whose
        round-robin turn it is: news from any other cannot move it."""
        if stream != self.sigma[self._rr]:
            return
        self.pump()

    def pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._step():
                pass
        finally:
            self._pumping = False

    def _step(self) -> bool:
        """Consume one position from the current stream; False if blocked."""
        stream = self.sigma[self._rr]
        cursor = self._cursors[stream]
        token = cursor.peek()
        if token is None:
            return False
        if isinstance(token, AppValue):
            self.delivered_per_stream[stream] += 1
            self.deliver(token, stream, cursor.position)
            cursor.position += 1
        elif isinstance(token, SkipToken) and len(self.sigma) == 1:
            # Sole stream: jumping the whole skip preserves the
            # delivered sequence and costs one step instead of `count`.
            cursor.position = cursor.token_end(token)
        else:
            cursor.position += 1   # skip/control token: silently consumed
        self._rr = (self._rr + 1) % len(self.sigma)
        return True
