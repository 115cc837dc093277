"""Load-adaptive coordinator batching policy.

Ring Paxos reaches NIC-limited throughput by amortising the protocol's
fixed per-instance cost over large batches -- but a large *fixed* batch
trigger is the wrong default: at low load it either ships tiny batches
(no amortisation) or waits for a fill that never comes (latency).  The
policy here adapts the batch target to observed queue pressure:

* **Pressure level** -- a peak-hold of the coordinator's pending-queue
  depth that decays exponentially (time constant ``decay_s``) when the
  queue empties.  Raising instantly and decaying slowly makes the
  policy react to bursts within one batch but not oscillate between
  consecutive pump runs.
* **Batch target** -- ``floor + span * level / (level + half_pressure)``,
  a saturating curve from ``floor`` (the classic ``batch_max_tokens``)
  to ``ceiling``.  It is *monotone* in the pressure level (property
  test: ``tests/paxos/test_adaptive_batching.py``) and halfway between
  floor and ceiling when the level equals ``half_pressure``.
* **Linger** -- at partial pressure the coordinator may briefly hold a
  batch open (up to ``max_linger_s``, scaled by the same saturating
  fraction) so in-flight arrivals join it; an idle stream lingers ~0 s
  and keeps its latency.

The policy is pure protocol-layer state machine -- no clocks of its
own, callers pass ``now`` -- so it is unit-testable in the sim backend
and behaves identically under the live asyncio kernel.  It is **off by
default** (``StreamConfig.adaptive_batching=False``): the sim's golden
digests are pinned byte-identical, and only live mode turns it on
(``python -m repro live``, docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math

__all__ = ["AdaptiveBatchPolicy"]


class AdaptiveBatchPolicy:
    """Peak-hold/decay pressure tracker mapping queue depth to a batch
    target and a linger budget.  Monotone and saturating by
    construction."""

    __slots__ = ("floor", "ceiling", "half_pressure", "decay_s",
                 "max_linger_s", "_level", "_level_at")

    def __init__(
        self,
        floor: int,
        ceiling: int,
        half_pressure: float = 32.0,
        decay_s: float = 0.25,
        max_linger_s: float = 0.002,
    ):
        if floor < 1:
            raise ValueError("floor must be >= 1")
        if ceiling < floor:
            raise ValueError("ceiling must be >= floor")
        if half_pressure <= 0:
            raise ValueError("half_pressure must be positive")
        if decay_s < 0 or max_linger_s < 0:
            raise ValueError("decay_s and max_linger_s must be >= 0")
        self.floor = floor
        self.ceiling = ceiling
        self.half_pressure = half_pressure
        self.decay_s = decay_s
        self.max_linger_s = max_linger_s
        self._level = 0.0
        self._level_at = 0.0

    @classmethod
    def from_config(cls, config) -> "AdaptiveBatchPolicy":
        """Build from a :class:`~repro.paxos.config.StreamConfig`; the
        classic ``batch_max_tokens`` becomes the adaptive floor."""
        return cls(
            floor=config.batch_max_tokens,
            ceiling=config.adaptive_batch_ceiling,
            half_pressure=config.adaptive_half_pressure,
            decay_s=config.adaptive_decay_s,
            max_linger_s=config.adaptive_max_linger_s,
        )

    # -- pressure -----------------------------------------------------

    def observe(self, queue_depth: int, now: float) -> float:
        """Fold one queue-depth sample in at time ``now``; returns the
        smoothed pressure level.  Peak-hold up, exponential decay down:
        a single deep sample raises the level immediately, and the
        level relaxes toward zero while the queue stays shallow."""
        self._decay_to(now)
        if queue_depth > self._level:
            self._level = float(queue_depth)
        return self._level

    def level(self, now: float) -> float:
        """Current (decayed) pressure level without folding a sample."""
        self._decay_to(now)
        return self._level

    def _decay_to(self, now: float) -> None:
        dt = now - self._level_at
        self._level_at = now
        if dt <= 0.0 or self._level == 0.0:
            return
        if self.decay_s == 0.0:
            self._level = 0.0
        else:
            self._level *= math.exp(-dt / self.decay_s)
            if self._level < 1e-9:
                self._level = 0.0

    # -- outputs ------------------------------------------------------

    def _saturation(self) -> float:
        level = self._level
        return level / (level + self.half_pressure)

    def target_tokens(self) -> int:
        """Batch-size target for the current pressure level: ``floor``
        when idle, saturating toward ``ceiling`` under sustained queue
        depth.  Monotone in the level."""
        span = self.ceiling - self.floor
        return self.floor + int(span * self._saturation())

    def linger_s(self) -> float:
        """How long a not-yet-full batch may be held open for arrivals
        to join it.  Zero when idle (latency first), approaching
        ``max_linger_s`` under pressure (throughput first).  A queue of
        one is not pressure: a lone value's linger would be below any
        real timer's resolution and only cost it a timer wakeup."""
        if self._level <= 1.0:
            return 0.0
        return self.max_linger_s * self._saturation()
