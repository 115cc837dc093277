"""Regression: windowed instruments must evict at *read* time.

Eviction used to run only inside ``record()``, so a windowed histogram
that went quiet kept reporting quantiles computed from samples far
older than its retention window -- the autoscaler would see a breach
that ended seconds ago and keep scaling.  These tests pin the fix: a
read after the window has fully aged out sees no samples, with no
intervening ``record()`` call needed.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import Counter, Series


class FakeClock:
    """The instruments only need ``.now`` (reads) and ``._now`` (record)."""

    def __init__(self):
        self.now = 0.0

    @property
    def _now(self):
        return self.now


def test_series_values_age_out_without_a_new_record():
    clock = FakeClock()
    series = Series(clock, window=1.0)
    series.record(10.0)
    clock.now = 0.5
    series.record(20.0)
    assert series.values == (10.0, 20.0)
    # Silence. The window slides past both samples.
    clock.now = 2.0
    assert series.values == ()
    assert len(series) == 0
    with pytest.raises(ValueError):
        series.mean()


def test_series_partial_ageing_keeps_only_fresh_samples():
    clock = FakeClock()
    series = Series(clock, window=1.0)
    series.record(10.0)
    clock.now = 0.9
    series.record(20.0)
    clock.now = 1.5        # sample at t=0 expired, t=0.9 retained
    assert series.values == (20.0,)
    assert series.percentile(99) == 20.0


def test_counter_rate_goes_to_zero_without_a_new_record():
    clock = FakeClock()
    counter = Counter(clock, window=1.0)
    for _ in range(10):
        counter.record()
    assert counter.rate_between(0.0, 1.0) == 10.0
    clock.now = 5.0
    # The lifetime total survives; the windowed rate must not.
    assert counter.total == 10.0
    assert counter.rate_between(4.0, 5.0) == 0.0
    assert len(counter) == 0


def test_registry_histogram_quantile_is_never_stale():
    clock = FakeClock()
    registry = MetricsRegistry(env=clock, window=1.0)
    histogram = registry.histogram("S1/coordinator", "decide_latency_ms")
    for value in (5.0, 6.0, 7.0):
        histogram.record(value)
    assert histogram.percentile(99) == 7.0
    clock.now = 3.0
    # This is the autoscaler's read path: a quiet stream must report
    # "no signal", not last epoch's latencies.
    assert histogram.values == ()
    with pytest.raises(ValueError):
        histogram.percentile(99)


def test_unwindowed_instruments_keep_everything():
    clock = FakeClock()
    series = Series(clock)        # window=None: the golden-digest path
    series.record(1.0)
    clock.now = 1e9
    assert series.values == (1.0,)
