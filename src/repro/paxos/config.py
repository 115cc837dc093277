"""Configuration of one Paxos stream (one Multi-Paxos sequence)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DEFAULT_DELTA_T", "DEFAULT_LAMBDA", "StreamConfig",
           "acceptor_name", "coordinator_name", "replica_name"]

# The λ/Δt skip mechanism of Multi-Ring Paxos (§III-B, §VII-A): a merge
# of several streams is gated by the slowest, so every Δt each
# coordinator tops its stream up with skip tokens to the virtual rate λ
# -- absolutely, to position λ·now (``CoordinatorActor._skip_tick``),
# which pins every stream of a deployment to one virtual position clock.
# The paper runs every experiment with λ = 4000 and Δt = 100 ms.
DEFAULT_LAMBDA = 4000      # stream positions per second
DEFAULT_DELTA_T = 0.100    # sampling interval in seconds


# The one naming rule of the actors, on both backends.  Stream and
# group names are a topology's data; the simulator's random streams are
# seeded on these names, so changing a rule moves every golden digest.

def coordinator_name(stream: str, standby: bool = False) -> str:
    """``<stream>/coordinator``, or its failover standby's."""
    return f"{stream}/coordinator{'-standby' if standby else ''}"


def acceptor_name(stream: str, index: int) -> str:
    """``<stream>/a<index>``, counted from 1."""
    return f"{stream}/a{index}"


def replica_name(group: str, index: int) -> str:
    """``<group>/r<index>``, counted from 1."""
    return f"{group}/r{index}"


@dataclass
class StreamConfig:
    """Everything that defines a stream's behaviour.

    Attributes mirror the knobs of URingPaxos that the paper exercises:
    λ and Δt (§VII-A), batching, ring dissemination, and the throughput
    throttle used in the vertical-scalability experiment ("we limited
    the single stream throughput to 30%").
    """

    name: str
    acceptors: tuple[str, ...]
    coordinator: str = ""
    ring_mode: bool = True
    lam: int = DEFAULT_LAMBDA
    delta_t: float = DEFAULT_DELTA_T
    skip_enabled: bool = True

    # Batching & pipelining.
    batch_max_tokens: int = 16
    window: int = 16                      # outstanding instances

    # Load-adaptive batching (repro.paxos.batching).  Off by default:
    # the sim's golden digests are pinned against the fixed trigger;
    # live mode enables it (docs/PERFORMANCE.md, "Live datapath
    # performance").  When on, ``batch_max_tokens`` is the floor the
    # batch target grows from under queue pressure.
    adaptive_batching: bool = False

    # Coordinator CPU model: seconds of CPU per proposed instance.
    cpu_cost_per_batch: float = 0.0

    # Optional cap on application-token proposal rate (tokens/second).
    value_rate_limit: Optional[float] = None

    def __post_init__(self):
        if not self.acceptors:
            raise ValueError(f"stream {self.name!r} needs at least one acceptor")
        if not self.coordinator:
            self.coordinator = coordinator_name(self.name)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.batch_max_tokens < 1:
            raise ValueError("batch_max_tokens must be >= 1")
