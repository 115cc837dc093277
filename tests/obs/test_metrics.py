"""Unit tests for the per-actor metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.trace import current_metrics, installed
from repro.sim.core import Environment


def test_gauge_tracks_last_and_peak():
    env = Environment()
    gauge = Gauge(env, "depth")
    assert gauge.value is None and gauge.peak is None
    gauge.record(3.0)
    gauge.record(9.0)
    gauge.record(4.0)
    assert gauge.value == 4.0
    assert gauge.peak == 9.0
    assert len(gauge) == 3


def test_registry_requires_environment():
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError, match="not bound"):
        registry.counter("a", "ops")


def test_registry_bind_first_env_wins():
    registry = MetricsRegistry()
    env1, env2 = Environment(), Environment()
    registry.bind(env1)
    registry.bind(env2)
    assert registry.env is env1


def test_instruments_are_keyed_and_reused():
    registry = MetricsRegistry(env=Environment())
    c1 = registry.counter("G1/r1", "retransmits")
    assert registry.counter("G1/r1", "retransmits") is c1
    assert registry.counter("G1/r2", "retransmits") is not c1
    g = registry.gauge("G1/r1", "inbox_depth")
    assert registry.gauge("G1/r1", "inbox_depth") is g
    h = registry.histogram("G1/r1", "checkpoint_bytes")
    assert registry.histogram("G1/r1", "checkpoint_bytes") is h
    assert registry.actors() == ["G1/r1", "G1/r2"]


def test_registry_instruments_are_bounded():
    registry = MetricsRegistry(env=Environment(), max_samples=4)
    histogram = registry.histogram("r1", "bytes")
    for i in range(10):
        histogram.record(float(i))
    assert len(histogram) == 4
    assert histogram.values == (6.0, 7.0, 8.0, 9.0)
    counter = registry.counter("r1", "ops")
    for _ in range(10):
        counter.record()
    assert counter.total == 10   # lifetime total survives eviction


def test_environment_adopts_installed_registry():
    registry = MetricsRegistry()
    with installed(metrics=registry):
        assert current_metrics() is registry
        env = Environment()
        assert env.metrics is registry
        assert registry.env is env   # bound at construction
    assert current_metrics() is None
    assert Environment().metrics is None


# -- dump round-trip (live --metrics-out -> repro stats) ---------------

def test_empty_registry_dump_round_trips():
    registry = MetricsRegistry()
    dump = registry.dump()
    assert dump["format"] == "repro-metrics/1"
    assert dump["counters"] == []
    assert dump["gauges"] == []
    assert dump["histograms"] == []
    from repro.obs.metrics import rows_from_dump
    assert rows_from_dump(dump) == []


def test_sampleless_instruments_survive_dump_round_trip():
    from repro.obs.metrics import rows_from_dump

    env = Environment()
    registry = MetricsRegistry()
    registry.bind(env)
    registry.gauge("r1", "depth")                # never recorded
    registry.histogram("client", "latency_ms")   # never recorded
    registry.counter("r1", "ops")                # zero total

    dump = registry.dump()
    gauge_entry = dump["gauges"][0]
    assert gauge_entry["last"] is None and gauge_entry["peak"] is None
    histogram_entry = dump["histograms"][0]
    # Stat keys are explicit nulls, never absent: consumers index them.
    for key in ("mean", "p50", "p95", "p99"):
        assert key in histogram_entry and histogram_entry[key] is None
    assert histogram_entry["n"] == 0

    # JSON round trip preserves the shape, and the renderer keeps the
    # actor rows instead of dropping or crashing on them.
    import json
    rows = rows_from_dump(json.loads(json.dumps(dump)))
    assert len(rows) == 3
    by_name = {(row[0], row[1]): row[3] for row in rows}
    assert "no samples" in by_name[("client", "latency_ms")]
    assert "no samples" in by_name[("r1", "depth")]
    assert by_name[("r1", "ops")] == "total=0"


def test_sampled_histogram_dump_keeps_stats():
    env = Environment()
    registry = MetricsRegistry()
    registry.bind(env)
    series = registry.histogram("client", "latency_ms")
    for value in (1.0, 2.0, 3.0):
        series.record(value)
    entry = registry.dump()["histograms"][0]
    assert entry["n"] == 3
    assert entry["mean"] == pytest.approx(2.0)
    assert entry["p50"] is not None
