"""Unit tests for measurement probes."""

import pytest

from repro.obs.metrics import Counter, Series, UtilisationProbe
from repro.quantiles import percentile
from repro.sim.core import Environment


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile(samples, 1) == 1


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 95)


def test_percentile_out_of_range_raises():
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_counter_interval_rates():
    env = Environment()
    counter = Counter(env)

    for i in range(10):
        env.call_at(i * 0.1, counter.record)
    env.call_at(1.5, counter.record, 5)   # inside [1.0, 2.0)
    env.run()
    rates = counter.interval_rates(1.0, start=0.0, end=2.0)
    assert rates[0] == (0.0, pytest.approx(10.0))
    assert rates[1] == (1.0, pytest.approx(5.0))
    assert counter.total == 15


def test_counter_rate_between_validates_bounds():
    env = Environment()
    counter = Counter(env)
    with pytest.raises(ValueError):
        counter.rate_between(1.0, 1.0)


def test_series_between_and_percentile():
    env = Environment()
    series = Series(env)

    for t, v in enumerate((1.0, 2.0, 3.0, 4.0)):
        env.call_at(t, series.record, v)
    env.run()
    assert series.between(1.0, 3.0) == [2.0, 3.0]
    assert series.percentile(50) == 2.0
    assert series.mean() == pytest.approx(2.5)
    assert len(series) == 4


def test_series_empty_mean_raises():
    env = Environment()
    series = Series(env)
    with pytest.raises(ValueError):
        series.mean()


def test_utilisation_probe_integrates_busy_time():
    env = Environment()
    probe = UtilisationProbe(env)

    probe.busy()
    env.call_at(2.0, probe.idle)
    env.run(until=4.0)
    assert probe.utilisation_between(0.0, 4.0) == pytest.approx(0.5)


def test_utilisation_probe_open_episode_counts():
    env = Environment()
    probe = UtilisationProbe(env)
    probe.busy()
    env.run(until=2.0)
    assert probe.utilisation_between(0.0, 2.0) == pytest.approx(1.0)


def test_interval_utilisation_points():
    env = Environment()
    probe = UtilisationProbe(env)

    probe.busy()
    env.call_at(1.0, probe.idle)
    env.run(until=2.0)
    points = probe.interval_utilisation(1.0, start=0.0, end=2.0)
    assert points == [(0.0, pytest.approx(1.0)), (1.0, pytest.approx(0.0))]


# -- retention bounds (window / max_samples) ---------------------------------


def test_counter_window_evicts_old_samples():
    env = Environment()
    counter = Counter(env, window=1.0)

    for t in (0.0, 0.5, 1.0, 1.5):
        env.call_at(t, counter.record)
    env.run(until=2.0)
    # Retention is evaluated at *read* time: the run ends at t=2.0, so
    # the samples at t=0.0 and t=0.5 fell out of the [1.0, 2.0] window
    # (a sample exactly at the window edge is retained).
    assert len(counter) == 2
    assert counter.total == 4                       # lifetime, not windowed
    assert counter.rate_between(1.0, 2.0) == pytest.approx(2.0)
    # The evicted interval reports no occurrences, never stale ones.
    assert counter.rate_between(0.0, 1.0) == 0.0


def test_counter_max_samples_keeps_newest():
    env = Environment()
    counter = Counter(env, max_samples=3)
    for _ in range(10):
        counter.record()
    assert len(counter) == 3
    assert counter.total == 10


def test_series_window_and_max_samples_compose():
    env = Environment()
    series = Series(env, window=10.0, max_samples=2)

    for t, v in enumerate((1.0, 2.0, 3.0)):
        env.call_at(t, series.record, v)
    env.run(until=3.0)
    assert series.values == (2.0, 3.0)              # count bound is tighter
    assert series.times == (1.0, 2.0)
    assert series.percentile(100) == 3.0
    assert series.mean() == pytest.approx(2.5)


def test_series_windowed_between_sees_only_retained():
    env = Environment()
    series = Series(env, window=0.9)

    for t, v in ((0.0, 1.0), (0.5, 2.0), (1.0, 3.0)):
        env.call_at(t, series.record, v)
    env.run(until=1.5)
    # Read-time retention: the run ends at t=1.5, so only the sample
    # at t=1.0 is still inside the 0.9 s window.
    assert series.between(0.0, 2.0) == [3.0]


def test_bounded_compaction_keeps_answers_correct():
    # Push far past the compaction threshold; the logical view must be
    # unaffected by the physical list compactions along the way.
    env = Environment()
    series = Series(env, max_samples=10)
    for i in range(3000):
        series.record(float(i))
    assert len(series) == 10
    assert series.values == tuple(float(i) for i in range(2990, 3000))
    # The dead prefix was actually compacted away, not just skipped.
    assert len(series._times) < 3000


def test_retention_bounds_validated():
    env = Environment()
    with pytest.raises(ValueError):
        Counter(env, window=0.0)
    with pytest.raises(ValueError):
        Series(env, max_samples=0)


# -- edge cases --------------------------------------------------------------


def test_interval_rates_empty_intervals_report_zero():
    env = Environment()
    counter = Counter(env)

    env.call_at(2.5, counter.record)
    env.run()
    rates = counter.interval_rates(1.0, start=0.0, end=3.0)
    assert rates == [
        (0.0, 0.0),
        (1.0, 0.0),
        (2.0, pytest.approx(1.0)),
    ]


def test_interval_rates_of_empty_counter():
    env = Environment()
    counter = Counter(env)
    assert counter.interval_rates(1.0, start=0.0, end=2.0) == [
        (0.0, 0.0), (1.0, 0.0),
    ]
    # With no explicit end and env.now == 0, there are no intervals.
    assert counter.interval_rates(1.0) == []


def test_interval_rates_partial_final_interval():
    env = Environment()
    counter = Counter(env)
    counter.record(weight=3)
    env.run(until=0.5)
    # Final interval is [0.0, 0.5): the rate reflects the short width.
    rates = counter.interval_rates(1.0, start=0.0, end=0.5)
    assert rates == [(0.0, pytest.approx(6.0))]


def test_interval_rates_rejects_bad_interval():
    env = Environment()
    counter = Counter(env)
    with pytest.raises(ValueError):
        counter.interval_rates(0.0)


def test_percentile_single_sample_any_pct():
    assert percentile([7.0], 0.001) == 7.0
    assert percentile([7.0], 100) == 7.0


def test_utilisation_between_spanning_zero_episodes():
    env = Environment()
    probe = UtilisationProbe(env)

    probe.busy()
    env.call_at(1.0, probe.idle)
    env.run(until=4.0)
    # The queried window lies entirely after the only busy episode.
    assert probe.utilisation_between(2.0, 4.0) == 0.0


def test_utilisation_probe_idempotent_marks():
    env = Environment()
    probe = UtilisationProbe(env)
    probe.idle()                       # idle while already idle: no-op
    probe.busy()
    probe.busy()                       # busy while already busy: no-op
    env.run(until=1.0)
    assert probe.utilisation_between(0.0, 1.0) == pytest.approx(1.0)


def test_utilisation_between_rejects_empty_window():
    env = Environment()
    probe = UtilisationProbe(env)
    with pytest.raises(ValueError):
        probe.utilisation_between(1.0, 1.0)
