"""Commands and replies of the partitioned key/value store (§VI).

Commands travel as the payload of multicast values; replies and
cross-partition signals are plain point-to-point messages from replicas
to clients / peer replicas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from ..net.messages import Message, WIRE_HEADER_BYTES

__all__ = [
    "CommandReply",
    "DeleteCmd",
    "GetCmd",
    "MapChangeCmd",
    "PutCmd",
    "RangeCmd",
    "SignalMsg",
    "fresh_cmd_id",
]

_cmd_ids = itertools.count(1)


def fresh_cmd_id() -> int:
    return next(_cmd_ids)


@dataclass(frozen=True)
class PutCmd:
    """Write ``key``; ``value_size`` models the payload (1024 B in Fig. 4)."""

    key: str
    value: Any
    value_size: int
    client: str
    cmd_id: int = field(default_factory=fresh_cmd_id)


@dataclass(frozen=True)
class GetCmd:
    key: str
    client: str
    cmd_id: int = field(default_factory=fresh_cmd_id)


@dataclass(frozen=True)
class DeleteCmd:
    key: str
    client: str
    cmd_id: int = field(default_factory=fresh_cmd_id)


@dataclass(frozen=True)
class RangeCmd:
    """Consistent multi-partition query: all keys in [start, end)."""

    start: str
    end: str
    client: str
    cmd_id: int = field(default_factory=fresh_cmd_id)


@dataclass(frozen=True)
class TxnCmd:
    """A one-shot (Calvin-style) multi-key transaction.

    ``ops`` is a tuple of ``(key, op, arg)`` with op one of:

    * ``"put"``  -- write ``arg``;
    * ``"add"``  -- numeric increment by ``arg`` (0 if absent);
    * ``"read"`` -- return the current value.

    Every involved partition delivers the command at the same merged
    position, applies the ops on the keys it owns, exchanges execution
    signals with the other involved partitions, and returns its partial
    results -- atomic and linearizable across shards without locks or
    two-phase commit, because the atomic multicast already ordered it
    against every conflicting command.
    """

    ops: tuple   # ((key, op, arg), ...)
    client: str
    cmd_id: int = field(default_factory=fresh_cmd_id)

    def keys(self) -> tuple:
        return tuple(key for key, _op, _arg in self.ops)


@dataclass(frozen=True)
class MapChangeCmd:
    """Installs a new partition map; ordered like any other command so
    every replica switches at the same point in the merged order."""

    new_map: Any   # a PartitionMap
    cmd_id: int = field(default_factory=fresh_cmd_id)


@dataclass(frozen=True)
class CommandReply(Message):
    """Replica -> client response."""

    cmd_id: int
    ok: bool
    result: Any
    partition: int
    replica: str

    def wire_size(self) -> int:
        result_size = len(self.result) * 24 if isinstance(self.result, (list, tuple)) else 16
        return WIRE_HEADER_BYTES + 16 + result_size


@dataclass(frozen=True)
class SignalMsg(Message):
    """Replica -> replica execution signal for multi-partition commands
    (the "direct signal messages" of §VI, after S-SMR)."""

    cmd_id: int
    partition: int
    replica: str


@dataclass(frozen=True)
class StateTransferRequest(Message):
    """Replica -> replica: send me the rows I own under map ``version``
    that your shard handed off when installing that map."""

    version: int
    requester: str


@dataclass(frozen=True)
class StateTransferReply(Message):
    """The handed-off rows that now belong to the requester's shard."""

    version: int
    rows: tuple   # tuple of (key, value)

    def wire_size(self) -> int:
        return WIRE_HEADER_BYTES + 8 + 48 * len(self.rows)
