"""Dynamic subscriptions under targeted faults (named schedules).

Each test pins one named :class:`repro.faults.scenarios.ScenarioSpec`
-- the same scenarios reachable via ``python -m repro faults run`` --
so a regression here reproduces exactly from the command line.
"""

from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import get_scenario


def test_subscription_issued_mid_partition_completes_after_heal():
    """G1 subscribes to S2 while cut off from S2's acceptors (schedule
    ``subscribe-mid-partition``): the scan stalls, safety holds
    throughout, and the subscription commits after the heal (§II:
    safety always, liveness after GST)."""
    runner = ScenarioRunner(get_scenario("subscribe-mid-partition"), seed=1)
    runner.run()   # raises InvariantViolation on any breach
    for name in ("G1/r1", "G1/r2"):
        assert runner.cluster.replicas[name].subscriptions == ("S1", "S2")
    # S2 values were actually merged in after the partition healed.
    heal_at = runner.schedule.actions[0].end
    s2 = [r for r in runner.suite.logs["G1/r1"].records if r.stream == "S2"]
    assert s2
    assert all(r.at > heal_at for r in s2)


def test_coordinator_crash_at_merge_point_fails_over():
    """S2's coordinator crashes right at the merge point of a pending
    subscription (schedule ``coordinator-crash-at-merge``): the standby
    is promoted and both replicas commit the identical merge point."""
    runner = ScenarioRunner(get_scenario("coordinator-crash-at-merge"), seed=1)
    runner.run()
    crash_at = runner.schedule.actions[0].at
    for name in ("G1/r1", "G1/r2"):
        replica = runner.cluster.replicas[name]
        assert replica.subscriptions == ("S1", "S2")
        # Delivery continued past the crash: the standby took over.
        assert any(
            r.at > crash_at for r in runner.suite.logs[name].records
        )
    # The subscription committed with one agreed merge point per replica
    # (cross-replica equality is the merge-points invariant itself).
    merge_points = {
        name: runner.cluster.replicas[name].merger.stats.merge_points
        for name in ("G1/r1", "G1/r2")
    }
    assert merge_points["G1/r1"]
    assert merge_points["G1/r1"] == merge_points["G1/r2"]


def test_learner_crash_during_prepare_recovers_and_subscribes():
    """A replica crashes while prepare_msg (§V-C) has it recovering the
    new stream in the background (schedule
    ``learner-crash-during-prepare``): it rejoins from its checkpoint,
    replays its suffix identically, and the later subscription commits
    on both replicas."""
    runner = ScenarioRunner(get_scenario("learner-crash-during-prepare"), seed=1)
    runner.run()
    # The crashed replica really went through checkpoint recovery ...
    assert runner.suite.logs["G1/r1"].rewinds == 1
    # ... and both replicas converged to the same Σ and sequence.
    assert runner.cluster.replicas["G1/r1"].subscriptions == ("S1", "S2")
    assert (
        runner.suite.logs["G1/r1"].sequence()
        == runner.suite.logs["G1/r2"].sequence()
    )


def test_duplication_storm_delivers_exactly_once():
    """40% wire duplication through a dynamic subscription (schedule
    ``duplicate-storm``): instance numbers and submission ids must
    deduplicate at every layer -- nothing is delivered twice."""
    runner = ScenarioRunner(get_scenario("duplicate-storm"), seed=1)
    runner.run()
    assert runner.cluster.network.messages_duplicated > 0
    for log in runner.suite.logs.values():
        ids = [r.msg_id for r in log.records]
        assert len(ids) == len(set(ids))


def test_reorder_storm_resequences():
    """Bounded FIFO-escaping reordering (schedule ``reorder-storm``):
    learners re-sequence by instance number, order is unaffected."""
    runner = ScenarioRunner(get_scenario("reorder-storm"), seed=1)
    runner.run()
    assert runner.cluster.network.messages_reordered > 0
