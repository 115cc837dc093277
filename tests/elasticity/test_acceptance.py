"""Acceptance tests: the closed loop meets each scenario's oracle.

One run per named scenario (cached at module scope -- each is a full
simulated cluster), then assertions on the decision timeline, the
executed reconfigurations, delivery health and the trace's causal
chain.  These are the PR's proof obligations: the controller reacts to
the load signal it was built for, never disrupts delivery, and every
decision is reconstructable from the trace alone.
"""

import json

import pytest

from repro.elasticity.scenarios import (
    ElasticityRunner,
    SCENARIOS,
    get_scenario,
    run_scenario,
)
from repro.obs.schema import validate_event
from repro.obs.trace import Tracer, installed

_RESULTS: dict = {}
_RUNNERS: dict = {}


def _run(name: str, seed: int = 1):
    key = (name, seed)
    if key not in _RESULTS:
        # Traced, so the ring rides along: the trace tests read it.
        with installed(Tracer()):
            runner = ElasticityRunner(get_scenario(name), seed=seed)
        _RESULTS[key] = runner.run()
        _RUNNERS[key] = runner
    return _RESULTS[key]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_meets_acceptance_oracle(name):
    result = _run(name)
    assert result.ok, result.report()
    # Delivery stayed disruption-free through the reconfiguration.
    assert result.max_gap <= result.gap_bound
    # Both replicas delivered the same, non-empty history.
    counts = set(result.delivered.values())
    assert len(counts) == 1 and counts.pop() > 0


def test_ramp_subscribes_a_new_stream():
    result = _run("ramp")
    assert "subscribe" in result.executed_kinds
    assert "S2" in result.final_streams
    # The decision cleared hysteresis: sustain records precede the
    # enforce record for the same rule.
    statuses = [r.status for r in result.timeline]
    assert "enforce" in statuses
    assert statuses.index("sustain") < statuses.index("enforce")


def test_hot_shard_splits_the_hot_range():
    result = _run("hot-shard")
    assert "split" in result.executed_kinds
    runner = _RUNNERS[("hot-shard", 1)]
    # The split moved exactly one half-range of one shard to the new
    # stream, and the router only activated it after commit.
    assert "S3" in result.final_streams
    assert runner.router.routes_to("S3")


def test_slow_acceptor_ring_is_replaced_and_retired():
    result = _run("slow-acceptor")
    assert "replace" in result.executed_kinds
    # The slow ring was drained and unsubscribed...
    assert result.retired == ["S1"]
    assert "S1" not in result.final_streams
    # ...and its replacement carries the group now.
    assert "S3" in result.final_streams


def test_same_seed_same_decision_timeline():
    first = _run("ramp", seed=5)
    second = ElasticityRunner(get_scenario("ramp"), seed=5).run()
    assert first.digest == second.digest
    assert first.timeline == second.timeline
    # request_ids come from a process-global counter; everything else
    # about the executed actions must match bit for bit.
    assert [e[:3] for e in first.executed] == [e[:3] for e in second.executed]


def test_different_seed_different_history():
    a = _run("ramp")
    b = _run("ramp", seed=2)
    assert a.digest != b.digest


def test_dry_run_decides_but_never_acts():
    dry = ElasticityRunner(get_scenario("ramp"), seed=1, dry_run=True).run()
    off = ElasticityRunner(
        get_scenario("ramp"), seed=1, controller_enabled=False
    ).run()
    assert dry.executed == []
    assert any(r.status == "advisory" for r in dry.timeline)
    assert not any(r.status == "enforce" for r in dry.timeline)
    # A dry-run run is observationally identical to no controller at
    # all: bit-identical delivery history.
    assert dry.digest == off.digest
    assert dry.ok and off.ok


def test_decision_trace_causality_and_schema():
    """elastic.decision -> control.subscribe -> merge.subscribe.commit,
    linked by request_id, in seq order; every event schema-valid."""
    _run("ramp")
    runner = _RUNNERS[("ramp", 1)]
    events = runner.recorder.events()
    for event in events:
        validate_event(json.loads(json.dumps(event)))
    actions = [e for e in events if e["kind"] == "elastic.action"]
    assert actions, "no elastic.action traced"
    for action in actions:
        request_id = action["request_id"]
        decisions = [
            e["seq"] for e in events
            if e["kind"] == "elastic.decision"
            and e["mode"] == "enforce"
            and e["seq"] < action["seq"]
        ]
        subscribes = [
            e["seq"] for e in events
            if e["kind"] == "control.subscribe"
            and e["request_id"] == request_id
        ]
        commits = [
            e["seq"] for e in events
            if e["kind"] == "merge.subscribe.commit"
            and e["request_id"] == request_id
        ]
        assert decisions, "decision must precede the action"
        assert len(subscribes) == 1
        assert len(commits) == len(runner.cluster.replicas)
        assert max(decisions) < subscribes[0] < min(commits)


def test_flight_recorder_rides_along():
    _run("ramp")
    runner = _RUNNERS[("ramp", 1)]
    assert runner.recorder.recorded > 0
    kinds = {e["kind"] for e in runner.recorder.events()}
    assert "elastic.poll" in kinds
    assert "replica.deliver" in kinds


def test_scenario_listing_is_stable():
    assert set(SCENARIOS) == {"ramp", "hot-shard", "slow-acceptor"}
    with pytest.raises(KeyError):
        get_scenario("nope")


def test_run_scenario_helper():
    result = run_scenario("ramp", seed=1)
    assert result.ok
