"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.core import Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def second():
        log.append(env.now)

    def first():
        log.append(env.now)
        env.call_later(0.5, second)

    env.call_later(1.5, first)
    env.run()
    assert log == [1.5, 2.0]


def test_same_instant_events_fire_in_fifo_order():
    env = Environment()
    log = []
    for name in ("a", "b", "c"):
        env.call_later(1.0, log.append, name)
    env.run()
    assert log == ["a", "b", "c"]


def test_same_instant_hand_off_runs_after_what_is_due():
    env = Environment()
    log = []

    def first():
        log.append("first")
        env.call_later(0.0, log.append, "handed off")

    env.call_later(1.0, first)
    env.call_later(1.0, log.append, "second")
    env.run()
    assert log == ["first", "second", "handed off"]


def test_call_at_runs_at_the_absolute_time():
    env = Environment(initial_time=2.0)
    log = []
    env.call_at(3.25, lambda: log.append(env.now))
    env.run()
    assert log == [3.25]
    with pytest.raises(ValueError):
        env.call_at(1.0, log.append, "late")


def test_run_until_stops_clock_exactly():
    env = Environment()

    def tick():
        env.call_later(0.3, tick)

    env.call_later(0.3, tick)
    env.run(until=1.0)
    assert env.now == 1.0


def test_run_until_in_past_raises():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_uncaught_exception_crashes_run():
    env = Environment()

    def boom():
        raise RuntimeError("unhandled")

    env.call_later(1, boom)
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_a_run_that_raised_leaves_a_harmless_sentinel():
    env = Environment()
    log = []

    def boom():
        raise RuntimeError("unhandled")

    env.call_later(1, boom)
    with pytest.raises(RuntimeError):
        env.run(until=5.0)
    env.call_later(6.0, log.append, "after")
    env.run()
    assert log == ["after"] and env.now == 7.0


def test_step_runs_one_entry():
    env = Environment()
    log = []
    env.call_later(1.0, log.append, "a")
    env.call_later(2.0, log.append, "b")
    env.step()
    assert (log, env.now) == (["a"], 1.0)
    env.step()
    with pytest.raises(SimulationError):
        env.step()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1, lambda: None)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.call_later(4, lambda: None)
    assert env.peek() == 4
