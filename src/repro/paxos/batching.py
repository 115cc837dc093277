"""Load-adaptive coordinator batching policy.

Ring Paxos reaches NIC-limited throughput by amortising the protocol's
fixed per-instance cost over large batches -- but a large *fixed* batch
trigger is the wrong default: at low load it either ships tiny batches
(no amortisation) or waits for a fill that never comes (latency).  The
policy here adapts the batch target to observed queue pressure:

* **Pressure level** -- a peak-hold of the coordinator's pending-queue
  depth that decays exponentially (time constant ``_DECAY_S``) when the
  queue empties.  Raising instantly and decaying slowly makes the
  policy react to bursts within one batch but not oscillate between
  consecutive pump runs.
* **Batch target** -- ``floor + span * level / (level + _HALF_PRESSURE)``,
  a saturating curve from ``floor`` (the classic ``batch_max_tokens``)
  to ``_CEILING``.  It is *monotone* in the pressure level (property
  test: ``tests/paxos/test_adaptive_batching.py``) and halfway between
  floor and ceiling when the level equals ``_HALF_PRESSURE``.
* **Linger** -- at partial pressure the coordinator may briefly hold a
  batch open (up to ``_MAX_LINGER_S``, scaled by the same saturating
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

_CEILING = 256             # batch target under saturating pressure
_HALF_PRESSURE = 32.0      # queue depth at which the target is halfway
_DECAY_S = 0.25            # time constant of the pressure level's decay
_MAX_LINGER_S = 0.002      # longest a partial batch is held open


class AdaptiveBatchPolicy:
    """Peak-hold/decay pressure tracker mapping queue depth to a batch
    target and a linger budget.  Monotone and saturating by
    construction."""

    __slots__ = ("floor", "_level", "_level_at")

    def __init__(self, floor: int):
        """``floor`` is the stream's classic ``batch_max_tokens``."""
        if not 1 <= floor <= _CEILING:
            raise ValueError(f"floor must be in [1, {_CEILING}]")
        self.floor = floor
        self._level = 0.0
        self._level_at = 0.0

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
        self._level *= math.exp(-dt / _DECAY_S)
        if self._level < 1e-9:
            self._level = 0.0

    # -- outputs ------------------------------------------------------

    def _saturation(self) -> float:
        level = self._level
        return level / (level + _HALF_PRESSURE)

    def target_tokens(self) -> int:
        """Batch-size target for the current pressure level: ``floor``
        when idle, saturating toward ``_CEILING`` under sustained queue
        depth.  Monotone in the level."""
        span = _CEILING - self.floor
        return self.floor + int(span * self._saturation())

    def linger_s(self, queue_depth: int) -> float:
        """How long a not-yet-full batch of ``queue_depth`` tokens may
        be held open for arrivals to join it.  Zero when idle (latency
        first), approaching ``_MAX_LINGER_S`` under pressure (throughput
        first).  A queue of one is not pressure, whatever the level: the
        peak-hold keeps the level above one long after a skip or a
        two-value turn, and a lone value's linger would be below any
        real timer's resolution and only cost it a timer wakeup."""
        if queue_depth <= 1:
            return 0.0
        return _MAX_LINGER_S * self._saturation()
