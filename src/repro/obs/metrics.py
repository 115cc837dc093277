"""Measurement instruments and the per-actor metrics registry.

The paper's figures plot per-interval throughput, latency percentiles
and CPU utilisation against runtime.  :class:`Counter` accumulates
discrete occurrences (operations, bytes) and can be folded into
per-interval rates; :class:`Series` records raw ``(time, value)``
samples; :class:`UtilisationProbe` integrates busy time of a server;
:class:`Gauge` keeps a sampled instantaneous value.  Each reads the
clock of the kernel it is given, the simulator's or a live node's.

:class:`MetricsRegistry` hands out named counters (occurrences),
gauges (e.g. inbox depth or merge lag) and series histograms
(distributions, e.g. checkpoint sizes) keyed by ``(actor, metric)``.
Instrumented code paths ask for metrics lazily::

    metrics = self.env.metrics
    if metrics is not None:
        metrics.counter(self.name, "retransmits").record()

so that -- like the tracer -- the default (no registry installed) costs
one attribute load and an ``is None`` test.

Install a registry process-wide with
:func:`repro.obs.trace.install_metrics` (or ``installed(metrics=...)``)
before creating the environment; the environment adopts it at
construction and binds it to virtual time.

Retention bounds
----------------
By default probes keep every sample forever, which is right for the
paper's fixed-duration figure runs but grows without bound under long
chaos sweeps and the always-on metrics registry.  Both :class:`Counter`
and :class:`Series` therefore take optional retention bounds:

``window`` (seconds of virtual time)
    Samples older than ``now - window`` are discarded as new samples
    arrive.
``max_samples`` (count)
    At most the newest ``max_samples`` samples are retained.

``Counter.total`` remains the *lifetime* total regardless of retention;
range queries (``rate_between``, ``between``, ``percentile``...) only
see retained samples.  Eviction is amortised O(1) per record: a logical
start offset advances cheaply and the backing columns are compacted
only once the dead prefix dominates.  The columns are ``array('d')``,
8 bytes a sample each instead of a list slot plus a float object, so
every value reads back as a float.

Windowed instruments also re-evaluate the window at *read* time.
Eviction used to happen only inside ``record()``, so a windowed
histogram that stopped receiving samples kept reporting the stale tail
forever -- a controller polling ``percentile(99)`` on an idle stream
would read the last storm's latencies instead of "no samples".  Reads
(``values``, ``len``, ``percentile``, ``rate_between``...) now advance
the live-start against the current virtual time first.

Registry instruments are created in *windowed* mode by default
(``max_samples``), so a long chaos run's registry stays bounded in
memory.
"""

from __future__ import annotations

import bisect
from array import array
from typing import TYPE_CHECKING, Optional

from ..quantiles import percentile

if TYPE_CHECKING:
    from ..sim.core import Environment

__all__ = [
    "Counter",
    "Gauge",
    "METRICS_DUMP_FORMAT",
    "MetricsRegistry",
    "Series",
    "UtilisationProbe",
    "rows_from_dump",
]

# Format marker of a JSON metrics dump (`python -m repro stats` sniffs
# it to distinguish a dump from a trace JSONL file).
METRICS_DUMP_FORMAT = "repro-metrics/1"

# Compact the backing columns only when at least this many dead slots
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
        self._times = array("d")
        self._start = 0                 # first live index

    def __len__(self) -> int:
        self._refresh()
        return len(self._times) - self._start

    def _refresh(self) -> None:
        """Apply window retention at read time: samples that aged out
        since the last ``record`` must not leak into reads."""
        if self.window is not None and len(self._times) > self._start:
            self._evict()

    def _columns(self) -> tuple[array, ...]:
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
        self._weights = array("d")
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
        self._values = array("d")

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
        return self._values[lo:hi].tolist()

    def percentile(self, pct: float) -> float:
        return percentile(self.values, pct)

    def mean(self) -> float:
        values = self.values
        if not values:
            raise ValueError("no samples")
        return sum(values) / len(values)


class UtilisationProbe:
    """Integrates the busy time of a server to report CPU utilisation.

    Busy episodes are two ``array('d')`` columns, their begins and their
    ends, both in time order (a server is busy once at a time).
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._busy_since: Optional[float] = None
        self._begins = array("d")
        self._ends = array("d")

    def busy(self) -> None:
        """Mark the server busy from now on (idempotent)."""
        if self._busy_since is None:
            self._busy_since = self.env._now

    def idle(self) -> None:
        """Mark the server idle from now on (idempotent)."""
        if self._busy_since is not None:
            self._begins.append(self._busy_since)
            self._ends.append(self.env._now)
            self._busy_since = None

    def utilisation_between(self, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` spent busy, in ``[0, 1]``."""
        if end <= start:
            raise ValueError("end must be after start")
        begins, ends = self._begins, self._ends
        # An episode over by ``start`` or not begun by ``end`` adds 0.0:
        # only the ones between are summed, in order.
        busy = 0.0
        for index in range(
            bisect.bisect_right(ends, start), bisect.bisect_left(begins, end)
        ):
            busy += max(0.0, min(ends[index], end) - max(begins[index], start))
        if self._busy_since is not None:
            busy += max(
                0.0, min(self.env.now, end) - max(self._busy_since, start)
            )
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


class Gauge:
    """A sampled instantaneous value (last-write-wins semantics).

    Backed by a :class:`Series` so history within the retention window
    is available for sparklines and percentiles.
    """

    def __init__(self, env, name: str = "", max_samples: Optional[int] = None):
        self.series = Series(env, name, max_samples=max_samples)
        self._last: Optional[float] = None
        self.peak: Optional[float] = None

    def record(self, value: float) -> None:
        self._last = value
        if self.peak is None or value > self.peak:
            self.peak = value
        self.series.record(value)

    @property
    def value(self) -> Optional[float]:
        """Most recently recorded value (None before the first sample)."""
        return self._last

    def __len__(self) -> int:
        return len(self.series)


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(actor, metric)``."""

    def __init__(
        self,
        env=None,
        window: Optional[float] = None,
        max_samples: Optional[int] = 65536,
    ):
        self.env = env
        self.window = window
        self.max_samples = max_samples
        self._counters: dict[tuple[str, str], Counter] = {}
        self._gauges: dict[tuple[str, str], Gauge] = {}
        self._histograms: dict[tuple[str, str], Series] = {}

    def bind(self, env) -> None:
        """Adopt ``env`` as the clock source (first environment wins)."""
        if self.env is None:
            self.env = env

    def _require_env(self):
        if self.env is None:
            raise RuntimeError(
                "metrics registry is not bound to an environment yet"
            )
        return self.env

    # -- instruments -----------------------------------------------------

    def counter(self, actor: str, name: str) -> Counter:
        key = (actor, name)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(
                self._require_env(), f"{actor}:{name}", window=self.window,
                max_samples=self.max_samples,
            )
        return instrument

    def gauge(self, actor: str, name: str) -> Gauge:
        key = (actor, name)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(
                self._require_env(), f"{actor}:{name}",
                max_samples=self.max_samples,
            )
        return instrument

    def histogram(self, actor: str, name: str) -> Series:
        key = (actor, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Series(
                self._require_env(), f"{actor}:{name}", window=self.window,
                max_samples=self.max_samples,
            )
        return instrument

    def windowed_histogram(
        self, actor: str, name: str, window: float
    ) -> Series:
        """A histogram with an explicit per-instrument retention window
        (overriding the registry-wide default, which live registries
        leave unset).  Used by probes whose quantiles must reflect the
        recent window -- e.g. the event-loop-lag probe.  If the key
        already exists, the existing instrument (and its window) wins.
        """
        key = (actor, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Series(
                self._require_env(), f"{actor}:{name}", window=window,
                max_samples=self.max_samples,
            )
        return instrument

    # -- introspection ---------------------------------------------------

    def counters(self) -> dict[tuple[str, str], Counter]:
        """Live ``(actor, metric) -> Counter`` view (read-only use)."""
        return dict(self._counters)

    def gauges(self) -> dict[tuple[str, str], Gauge]:
        """Live ``(actor, metric) -> Gauge`` view (read-only use)."""
        return dict(self._gauges)

    def histograms(self) -> dict[tuple[str, str], Series]:
        """Live ``(actor, metric) -> Series`` view (read-only use)."""
        return dict(self._histograms)

    def actors(self) -> list[str]:
        names = {actor for actor, _ in self._counters}
        names.update(actor for actor, _ in self._gauges)
        names.update(actor for actor, _ in self._histograms)
        return sorted(names)

    def dump(self) -> dict:
        """A JSON-serializable snapshot of every instrument.

        Written by live runs (``python -m repro live --metrics-out``)
        and read back by ``python -m repro stats``.
        """
        counters = [
            {"actor": actor, "name": name, "total": counter.total}
            for (actor, name), counter in self._counters.items()
        ]
        gauges = [
            {"actor": actor, "name": name, "last": gauge.value,
             "peak": gauge.peak}
            for (actor, name), gauge in self._gauges.items()
        ]
        histograms = []
        for (actor, name), series in self._histograms.items():
            values = series.values
            # Stat keys are always present -- explicit null rather than
            # absent -- so consumers (rows_from_dump, the Prometheus
            # renderer, `repro top`) never need per-key existence
            # checks and an unsampled histogram keeps its actor row.
            entry = {
                "actor": actor, "name": name, "n": len(values),
                "mean": None, "p50": None, "p95": None, "p99": None,
            }
            if values:
                entry.update(
                    mean=sum(values) / len(values),
                    p50=percentile(values, 50),
                    p95=percentile(values, 95),
                    p99=percentile(values, 99),
                )
            histograms.append(entry)
        return {
            "format": METRICS_DUMP_FORMAT,
            "counters": sorted(counters, key=lambda e: (e["actor"], e["name"])),
            "gauges": sorted(gauges, key=lambda e: (e["actor"], e["name"])),
            "histograms": sorted(
                histograms, key=lambda e: (e["actor"], e["name"])
            ),
        }


def rows_from_dump(data: dict) -> list[tuple[str, str, str, str]]:
    """Render a :meth:`MetricsRegistry.dump` back into summary rows."""
    if data.get("format") != METRICS_DUMP_FORMAT:
        raise ValueError(
            f"not a metrics dump (format={data.get('format')!r}, "
            f"expected {METRICS_DUMP_FORMAT!r})"
        )
    rows: list[tuple[str, str, str, str]] = []
    for entry in data.get("counters", ()):
        total = entry.get("total")
        rendered = "(no total)" if total is None else f"total={total:g}"
        rows.append((entry["actor"], entry["name"], "counter", rendered))
    for entry in data.get("gauges", ()):
        if entry.get("last") is None:
            rendered = "(no samples)"
        else:
            rendered = f"last={entry['last']:g} peak={entry['peak']:g}"
        rows.append((entry["actor"], entry["name"], "gauge", rendered))
    for entry in data.get("histograms", ()):
        if not entry.get("n") or entry.get("mean") is None:
            rendered = "(no samples)"
        else:
            rendered = (
                f"n={entry['n']} mean={entry['mean']:.4g} "
                f"p95={entry['p95']:.4g}"
            )
        rows.append((entry["actor"], entry["name"], "histogram", rendered))
    rows.sort()
    return rows
