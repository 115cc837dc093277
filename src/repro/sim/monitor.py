"""Measurement probes for simulated experiments.

The paper's figures plot per-interval throughput, latency percentiles
and CPU utilisation against runtime.  :class:`Counter` accumulates
discrete occurrences (operations, bytes) and can be folded into
per-interval rates; :class:`Series` records raw ``(time, value)``
samples; :class:`UtilisationProbe` integrates busy time of a server.

Retention bounds
----------------
By default probes keep every sample forever, which is right for the
paper's fixed-duration figure runs but grows without bound under long
chaos sweeps and the always-on metrics registry
(:mod:`repro.obs.metrics`).  Both :class:`Counter` and :class:`Series`
therefore take optional retention bounds:

``window`` (seconds of virtual time)
    Samples older than ``now - window`` are discarded as new samples
    arrive.
``max_samples`` (count)
    At most the newest ``max_samples`` samples are retained.

``Counter.total`` remains the *lifetime* total regardless of retention;
range queries (``rate_between``, ``between``, ``percentile``...) only
see retained samples.  Eviction is amortised O(1) per record: a logical
start offset advances cheaply and the backing lists are compacted only
once the dead prefix dominates.

Windowed instruments also re-evaluate the window at *read* time.
Eviction used to happen only inside ``record()``, so a windowed
histogram that stopped receiving samples kept reporting the stale tail
forever -- a controller polling ``percentile(99)`` on an idle stream
would read the last storm's latencies instead of "no samples".  Reads
(``values``, ``len``, ``percentile``, ``rate_between``...) now advance
the live-start against the current virtual time first.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from ..quantiles import percentile
from .core import Environment

__all__ = ["Counter", "Series", "UtilisationProbe", "percentile"]

# Compact the backing lists only when at least this many dead slots
# exist *and* they outnumber the live ones (amortised O(1) eviction).
_COMPACT_MIN = 256


class _BoundedSamples:
    """Shared retention machinery for Counter and Series."""

    def __init__(
        self,
        env: Environment,
        window: Optional[float],
        max_samples: Optional[int],
    ):
        if window is not None and window <= 0:
            raise ValueError("window must be positive or None")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive or None")
        self.env = env
        self.window = window
        self.max_samples = max_samples
        self._times: list[float] = []
        self._start = 0                 # first live index

    def __len__(self) -> int:
        self._refresh()
        return len(self._times) - self._start

    def _refresh(self) -> None:
        """Apply window retention at read time: samples that aged out
        since the last ``record`` must not leak into reads."""
        if self.window is not None and len(self._times) > self._start:
            self._evict()

    def _columns(self) -> tuple[list, ...]:
        """The sample columns to evict/compact alongside ``_times``."""
        return (self._times,)

    def _evict(self) -> None:
        """Advance the live-start past expired/overflow samples."""
        start = self._start
        if self.window is not None:
            cutoff = self.env.now - self.window
            start = bisect.bisect_left(self._times, cutoff, start)
        if self.max_samples is not None:
            overflow = len(self._times) - start - self.max_samples
            if overflow > 0:
                start += overflow
        if start == self._start:
            return
        self._start = start
        if start >= _COMPACT_MIN and start * 2 >= len(self._times):
            for column in self._columns():
                del column[:start]
            self._start = 0

    def _lo(self, t: float) -> int:
        return max(bisect.bisect_left(self._times, t), self._start)

    def _hi(self, t: float) -> int:
        return max(bisect.bisect_left(self._times, t), self._start)


class Counter(_BoundedSamples):
    """Counts timestamped occurrences, e.g. completed operations."""

    def __init__(
        self,
        env: Environment,
        name: str = "",
        window: Optional[float] = None,
        max_samples: Optional[int] = None,
    ):
        super().__init__(env, window, max_samples)
        self.name = name
        self._weights: list[float] = []
        self._total = 0.0

    def _columns(self):
        return (self._times, self._weights)

    def record(self, weight: float = 1.0) -> None:
        """Record ``weight`` occurrences at the current instant."""
        self._times.append(self.env._now)
        self._weights.append(weight)
        self._total += weight
        if self.window is not None or self.max_samples is not None:
            self._evict()

    @property
    def total(self) -> float:
        """Lifetime total, unaffected by retention bounds."""
        return self._total

    def rate_between(self, start: float, end: float) -> float:
        """Average rate (occurrences / time unit) over ``[start, end)``.

        Only retained samples contribute (see the module notes on
        retention bounds).
        """
        if end <= start:
            raise ValueError("end must be after start")
        self._refresh()
        lo = self._lo(start)
        hi = self._hi(end)
        return sum(self._weights[lo:hi]) / (end - start)

    def interval_rates(
        self, interval: float, start: float = 0.0, end: Optional[float] = None
    ) -> list[tuple[float, float]]:
        """Fold occurrences into consecutive intervals.

        Returns ``[(interval_start, rate), ...]`` covering
        ``[start, end)``; ``end`` defaults to the current instant.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        stop = self.env.now if end is None else end
        points = []
        t = start
        while t < stop:
            t_next = min(t + interval, stop)
            points.append((t, self.rate_between(t, t_next)))
            t = t + interval
        return points


class Series(_BoundedSamples):
    """Raw ``(time, value)`` samples, e.g. per-request latencies."""

    def __init__(
        self,
        env: Environment,
        name: str = "",
        window: Optional[float] = None,
        max_samples: Optional[int] = None,
    ):
        super().__init__(env, window, max_samples)
        self.name = name
        self._values: list[float] = []

    def _columns(self):
        return (self._times, self._values)

    def record(self, value: float) -> None:
        self._times.append(self.env._now)
        self._values.append(value)
        if self.window is not None or self.max_samples is not None:
            self._evict()

    @property
    def values(self) -> tuple[float, ...]:
        self._refresh()
        return tuple(self._values[self._start:])

    @property
    def times(self) -> tuple[float, ...]:
        self._refresh()
        return tuple(self._times[self._start:])

    def between(self, start: float, end: float) -> list[float]:
        """Values sampled in ``[start, end)`` (retained samples only)."""
        self._refresh()
        lo = self._lo(start)
        hi = self._hi(end)
        return self._values[lo:hi]

    def percentile(self, pct: float) -> float:
        return percentile(self.values, pct)

    def mean(self) -> float:
        values = self.values
        if not values:
            raise ValueError("no samples")
        return sum(values) / len(values)


class UtilisationProbe:
    """Integrates the busy time of a server to report CPU utilisation."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._busy_since: Optional[float] = None
        self._episodes: list[tuple[float, float]] = []

    def busy(self) -> None:
        """Mark the server busy from now on (idempotent)."""
        if self._busy_since is None:
            self._busy_since = self.env._now

    def idle(self) -> None:
        """Mark the server idle from now on (idempotent)."""
        if self._busy_since is not None:
            self._episodes.append((self._busy_since, self.env._now))
            self._busy_since = None

    def utilisation_between(self, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` spent busy, in ``[0, 1]``."""
        if end <= start:
            raise ValueError("end must be after start")
        episodes: Iterable[tuple[float, float]] = self._episodes
        if self._busy_since is not None:
            episodes = list(self._episodes) + [(self._busy_since, self.env.now)]
        busy = 0.0
        for b, e in episodes:
            busy += max(0.0, min(e, end) - max(b, start))
        return busy / (end - start)

    def interval_utilisation(
        self, interval: float, start: float = 0.0, end: Optional[float] = None
    ) -> list[tuple[float, float]]:
        """Per-interval utilisation points, mirroring Counter.interval_rates."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        stop = self.env.now if end is None else end
        points = []
        t = start
        while t < stop:
            points.append((t, self.utilisation_between(t, min(t + interval, stop))))
            t += interval
        return points
