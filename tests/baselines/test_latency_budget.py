"""Acceptance criterion for the latency-attribution plane (ISSUE 7):
on a pinned-seed figure-3 run the budget must attribute >=95% of the
mean end-to-end delivery latency to named segments, deterministically
(same seed -> byte-identical budget report)."""

from __future__ import annotations

from repro.harness.experiments.vertical import run_vertical
from repro.obs.critpath import BUDGET_FORMAT, SEGMENT_NAMES, latency_budget
from repro.obs.spans import LifecycleIndex
from repro.obs.trace import Tracer, installed

from .test_golden_digests import compact_fig3_config


def fig3_latency_budget() -> dict:
    """The compact figure-3 run under a streaming LifecycleIndex
    tracer.  The sim runs in virtual time, so the budget is a pure
    function of the seed."""
    index = LifecycleIndex()
    with installed(Tracer(sinks=[index])):
        run_vertical(compact_fig3_config(seed=1))
    return latency_budget(index)


def test_fig3_budget_attributes_95_percent_deterministically():
    one = fig3_latency_budget()
    two = fig3_latency_budget()
    assert one == two                      # same seed -> same budget
    assert one["format"] == BUDGET_FORMAT
    assert one["messages"]["complete"] > 1000
    assert one["coverage"] == 1.0
    assert [seg["name"] for seg in one["segments"]] == list(SEGMENT_NAMES)
    assert one["attributed_share"] >= 0.95
    # The compact fig3 runs three streams through one merger, so both
    # blame tables are populated.
    assert one["stragglers"]
    assert one["blockers"]
