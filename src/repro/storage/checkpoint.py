"""Replica checkpoints and state transfer.

URingPaxos coordinates replica checkpoints with acceptor log trimming:
once every replica of a group has checkpointed its state up to stream
position ``p``, instances below ``p`` can be trimmed from the acceptors.
A recovering (or newly subscribing) replica first installs the latest
checkpoint, then replays the stream from the checkpoint position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .snapshot import structural_copy

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot of replica state.

    ``position`` is the stream position (exclusive) the snapshot covers:
    replaying values from ``position`` onward reproduces the live state.
    """

    position: int
    state: Any
    size_bytes: int = 0


class CheckpointStore:
    """Keeps the most recent checkpoints for one replica group."""

    def __init__(self, keep: int = 2):
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self._keep = keep
        self._checkpoints: list[Checkpoint] = []

    def save(self, position: int, state: Any, size_bytes: int = 0) -> Checkpoint:
        """Snapshot ``state`` (structurally copied) at ``position``."""
        if self._checkpoints and position < self._checkpoints[-1].position:
            raise ValueError(
                f"checkpoint position {position} moves backwards "
                f"(latest is {self._checkpoints[-1].position})"
            )
        checkpoint = Checkpoint(
            position=position, state=structural_copy(state), size_bytes=size_bytes
        )
        self._checkpoints.append(checkpoint)
        del self._checkpoints[: -self._keep]
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    def __len__(self) -> int:
        return len(self._checkpoints)
