"""Unit tests for the shape-analysis helpers."""

import pytest

from repro.harness.report import (
    dip_and_recovery,
    flat_through,
    is_monotonic_increasing,
    step_ratios,
)


def test_monotonic_with_tolerance():
    assert is_monotonic_increasing([1, 2, 3])
    assert not is_monotonic_increasing([1, 3, 2])
    assert is_monotonic_increasing([100, 99, 150], tolerance=0.02)


def test_step_ratios():
    assert step_ratios([100, 200, 300]) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        step_ratios([])
    with pytest.raises(ValueError):
        step_ratios([0, 1])


def test_dip_and_recovery_detects_stall():
    series = [(t, 100.0) for t in range(10)]
    series[5] = (5, 10.0)
    series[6] = (6, 50.0)
    depth, recovery = dip_and_recovery(series, event_time=4, window=5, baseline=100)
    assert depth == pytest.approx(0.1)
    assert recovery == pytest.approx(3.0)  # back at >=90 by t=7


def test_dip_and_recovery_no_dip():
    series = [(t, 100.0) for t in range(10)]
    depth, recovery = dip_and_recovery(series, event_time=2, window=5, baseline=100)
    assert depth == pytest.approx(1.0)
    assert recovery == 0.0


def test_dip_and_recovery_validates():
    with pytest.raises(ValueError):
        dip_and_recovery([], 0, 1, 100)
    with pytest.raises(ValueError):
        dip_and_recovery([(0, 1)], 0, 1, 0)


def test_flat_through():
    series = [(t, 100.0) for t in range(10)]
    assert flat_through(series, 0, 9, baseline=100)
    series[4] = (4, 70.0)
    assert not flat_through(series, 0, 9, baseline=100)
    assert flat_through(series, 5, 9, baseline=100)
