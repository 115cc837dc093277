"""Stable storage, acceptor logs and checkpointing."""

from .checkpoint import Checkpoint, CheckpointStore
from .log import AcceptorLog, InstanceSet, LogEntry, TrimError
from .stable import StableStore

__all__ = [
    "AcceptorLog",
    "Checkpoint",
    "CheckpointStore",
    "InstanceSet",
    "LogEntry",
    "StableStore",
    "TrimError",
]
