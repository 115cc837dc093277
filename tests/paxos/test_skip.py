"""Unit tests for the λ/Δt skip calculator."""

import pytest

from repro.paxos.skip import SkipCalculator


def test_idle_stream_skips_full_interval():
    calc = SkipCalculator(lam=4000, delta_t=0.1)
    assert calc.skip_needed() == 400


def test_loaded_stream_never_skips():
    calc = SkipCalculator(lam=4000, delta_t=0.1)
    calc.record_positions(500)
    assert calc.skip_needed() == 0


def test_partial_load_tops_up_the_difference():
    calc = SkipCalculator(lam=4000, delta_t=0.1)
    calc.record_positions(150)
    assert calc.skip_needed() == 250


def test_interval_counter_resets():
    calc = SkipCalculator(lam=1000, delta_t=0.1)
    calc.record_positions(100)
    assert calc.skip_needed() == 0
    assert calc.skip_needed() == 100  # next interval starts from zero


def test_fractional_target_carries_between_intervals():
    # λ·Δt = 2.5 positions per interval: skips must average 2.5.
    calc = SkipCalculator(lam=25, delta_t=0.1)
    total = sum(calc.skip_needed() for _ in range(10))
    assert total == 25


def test_overload_does_not_accumulate_credit():
    calc = SkipCalculator(lam=1000, delta_t=0.1)
    calc.record_positions(10_000)
    assert calc.skip_needed() == 0
    assert calc.skip_needed() == 100  # surplus does not carry over


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SkipCalculator(lam=0)
    with pytest.raises(ValueError):
        SkipCalculator(delta_t=0)
    calc = SkipCalculator()
    with pytest.raises(ValueError):
        calc.record_positions(-1)
