"""The calendar holds what is pending, not what was once armed.

A closed-loop client waits for at most one value per thread, and a
message is in flight for milliseconds, so the heap of entries due later
should stay in the tens however long a run lasts.  It used to hold one
dead timeout per value acked in the last ``timeout`` seconds: thousands
on Figure 3.  These runs sample the heap every 0.05 sim-s.
"""

from __future__ import annotations

import pytest

from repro.faults.runner import run_scenario
from repro.faults.scenarios import get_scenario
from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.runtime.kernel import every
from repro.sim.core import Environment

SAMPLE_EVERY = 0.05
# Figure 3 at a twentieth of its length (the ledger's scenario-sized
# run: 3 sim-s, 4 streams, 20 client threads) peaks near 34 entries.
FIG3_HEAP_BOUND = 64
# Chaos seed 1 (crashes, partitions, loss) peaks near 92.
CHAOS_HEAP_BOUND = 128


@pytest.fixture
def heap_sizes(monkeypatch):
    """The heap's length, sampled on every environment that runs."""
    sizes: list[int] = []
    sampled: set[int] = set()
    run = Environment.run

    def sampling_run(env, until=None):
        if id(env) not in sampled:
            sampled.add(id(env))

            def sample():
                sizes.append(len(env._queue))
                return bool(env._queue or env._fifo)

            every(env, SAMPLE_EVERY, sample)
        return run(env, until)

    monkeypatch.setattr(Environment, "run", sampling_run)
    return sizes


def test_figure3_keeps_the_calendar_small(heap_sizes):
    run_vertical(VerticalConfig(duration=3.0, add_interval=0.75, seed=7))
    assert len(heap_sizes) >= 50
    assert max(heap_sizes) <= FIG3_HEAP_BOUND


def test_chaos_keeps_the_calendar_small(heap_sizes):
    result = run_scenario(get_scenario("chaos"), seed=1)
    assert sum(result.delivered.values()) > 0
    assert len(heap_sizes) >= 50
    assert max(heap_sizes) <= CHAOS_HEAP_BOUND
