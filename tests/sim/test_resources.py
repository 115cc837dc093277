"""Unit tests for the Server capacity model."""

import pytest

from repro.sim.core import Environment
from repro.runtime.resources import Server


def test_single_request_takes_cost_over_rate():
    env = Environment()
    server = Server(env, rate=10.0)
    done = []
    server.request(1.0, lambda: done.append(env.now))
    env.run()
    assert done == [pytest.approx(0.1)]


def test_requests_queue_fifo():
    env = Environment()
    server = Server(env, rate=1.0)
    done = []
    for name in ("a", "b"):
        server.request(1.0, lambda name=name: done.append((name, env.now)))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_same_instant_completions_run_fifo_after_what_is_due():
    """Two requests issued at one instant whose work ends at one
    ``done_at`` complete in issue order, and after the entries already
    due then: each completion is drawn when its work finishes, not run
    by the finish itself."""
    env = Environment()
    server = Server(env, rate=1.0)
    log = []
    server.request(1.0, log.append, "first done")
    server.request(0.0, log.append, "second done")    # queued: done at 1.0
    env.call_at(1.0, log.append, "already due")
    env.run()
    assert log == ["already due", "first done", "second done"]
    assert server.completed == 2 and env.now == 1.0


def test_utilisation_reflects_busy_fraction():
    env = Environment()
    server = Server(env, rate=1.0)
    server.request(2.0)
    env.run(until=4.0)
    assert server.utilisation_between(0.0, 4.0) == pytest.approx(0.5)


def test_invalid_rate_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Server(env, rate=0)


def test_negative_cost_rejected():
    env = Environment()
    server = Server(env, rate=1.0)
    with pytest.raises(ValueError):
        server.request(cost=-1)


def test_completed_counter():
    env = Environment()
    server = Server(env, rate=100.0)
    for _ in range(5):
        server.request()
    env.run()
    assert server.completed == 5
