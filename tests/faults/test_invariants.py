"""The in-process front-end of the safety spec: what it raises, what
it remembers across a rewind, and what a check costs.

These tests drive :class:`repro.faults.invariants.InvariantSuite`
through stub replicas so each safety property can be broken in
isolation and shown to raise :class:`InvariantViolation`.  Which
histories break which property is ``tests/test_spec.py``'s table (these
histories are rows of it); here the subject is the suite: the exception,
its message and ids, the log bookkeeping, the fold counts.
"""

import types

import pytest

from repro.faults.invariants import (
    DeliveryRecord,
    InvariantSuite,
    InvariantViolation,
)


class StubReplica:
    """Duck-typed stand-in for a MulticastReplica."""

    def __init__(self, group, subscriptions=("S1",)):
        self.group = group
        self.subscriptions = tuple(subscriptions)
        self.env = types.SimpleNamespace(now=0.0)
        self.merger = types.SimpleNamespace(
            stats=types.SimpleNamespace(merge_points={})
        )
        self._observers = []

    def add_run_observer(self, observer):
        self._observers.append(observer)

    def deliver(self, msg_id, stream, position, payload=None):
        self.deliver_run(
            stream, position, [(msg_id, payload if payload is not None else msg_id)]
        )

    def deliver_run(self, stream, first, values):
        """``values``: ``(msg_id, payload)`` pairs at the positions from
        ``first`` on, handed over as one run."""
        run = [
            types.SimpleNamespace(msg_id=msg_id, payload=payload)
            for msg_id, payload in values
        ]
        for observer in self._observers:
            observer(stream, first, run)


def make_suite(**replicas):
    return InvariantSuite(replicas), replicas


def test_clean_logs_pass():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"))
    for r in rs.values():
        r.deliver(1, "S1", 0)
        r.deliver(2, "S1", 1)
    suite.check()
    suite.assert_converged()


def test_stream_agreement_violation_detected():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G2"))
    rs["r1"].deliver(1, "S1", 0)
    rs["r2"].deliver(2, "S1", 0)   # same position, different value
    with pytest.raises(InvariantViolation, match="stream agreement"):
        suite.check()


def test_prefix_divergence_detected():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 0)
    rs["r1"].deliver(2, "S1", 1)
    rs["r2"].deliver(1, "S1", 0)
    rs["r2"].deliver(3, "S2", 0)   # diverges at delivery #1
    with pytest.raises(InvariantViolation, match="diverges"):
        suite.check()


def test_non_monotone_position_detected():
    suite, rs = make_suite(r1=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 1)
    rs["r1"].deliver(2, "S1", 1)   # repeated position
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        suite.check()


def test_delivery_order_cycle_detected():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G2"))
    # Two groups deliver the same pair in opposite relative order.
    rs["r1"].deliver(1, "S1", 0)
    rs["r1"].deliver(2, "S2", 0)
    rs["r2"].deliver(2, "S2", 0)
    rs["r2"].deliver(1, "S1", 0)
    with pytest.raises(InvariantViolation, match="cycle"):
        suite.check()


def test_merge_point_disagreement_detected():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"))
    rs["r1"].merger.stats.merge_points[7] = ("S2", 100)
    rs["r2"].merger.stats.merge_points[7] = ("S2", 101)
    with pytest.raises(InvariantViolation, match="merge point"):
        suite.check()


def test_divergent_replay_detected_across_rewind():
    """A recovering replica may legitimately re-deliver its suffix --
    but replaying a *different* value at a seen position must raise
    even though the log was rewound."""
    suite, rs = make_suite(r1=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 0)
    rs["r1"].deliver(2, "S1", 1)
    suite.check()                      # memorises position -> value
    mark = suite.mark("r1")
    suite.rewind("r1", 0)
    rs["r1"].deliver(1, "S1", 0)
    rs["r1"].deliver(9, "S1", 1)       # replay diverges
    with pytest.raises(InvariantViolation, match="stream agreement") as info:
        suite.check()
    assert info.value.msg_id == 9
    assert [v.property for v in info.value.violations] == [
        "stream-agreement", "prefix-agreement"
    ]
    assert mark == 2
    assert suite.logs["r1"].rewinds == 1


def test_faithful_replay_passes_after_rewind():
    suite, rs = make_suite(r1=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 0)
    rs["r1"].deliver(2, "S1", 1)
    suite.check()
    suite.rewind("r1", 1)
    rs["r1"].deliver(2, "S1", 1)       # identical replay
    suite.check()
    assert [r.msg_id for r in suite.logs["r1"].records] == [1, 2]


def test_convergence_failure_reported():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 0)
    suite.check()                      # prefix-consistent (r2 is behind) ...
    with pytest.raises(InvariantViolation, match="did not converge"):
        suite.assert_converged()       # ... but not converged


# -- a check costs what was delivered since the last one ----------------

def _folded_everything(suite):
    return suite.spec.folded == sum(
        len(log.records) for log in suite.logs.values()
    )


def test_check_folds_each_delivery_once():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"),
                           r3=StubReplica("G2"))
    position = 0
    for burst in (5, 0, 3, 1):
        for _ in range(burst):
            for r in rs.values():
                r.deliver(100 + position, "S1", position)
            position += 1
        suite.check()
        assert _folded_everything(suite) and suite.spec.folded == 3 * position


def test_a_delivered_run_is_logged_and_folded_value_by_value():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G1"))
    rs["r1"].deliver_run("S1", 4, [(10, "a"), (11, "b"), (12, "c")])
    for position, msg_id in ((4, 10), (5, 11), (6, 12)):
        rs["r2"].deliver(msg_id, "S1", position)
    suite.check()
    assert suite.logs["r1"].sequence() == suite.logs["r2"].sequence() == [
        ("S1", 4, 10), ("S1", 5, 11), ("S1", 6, 12),
    ]
    assert suite.logs["r1"].records == [
        DeliveryRecord("S1", 4, 10, 0.0), DeliveryRecord("S1", 5, 11, 0.0),
        DeliveryRecord("S1", 6, 12, 0.0),
    ]
    assert suite.spec.folded == 6
    rs["r1"].deliver_run("S1", 7, [(13, 13), (13, 13)])   # one run, twice
    with pytest.raises(InvariantViolation, match="twice"):
        suite.check()


def test_check_with_nothing_new_folds_nothing_and_searches_no_cycle():
    suite, rs = make_suite(r1=StubReplica("G1"), r2=StubReplica("G2"))
    for r in rs.values():
        r.deliver(1, "S1", 0)
        r.deliver(2, "S2", 0)
    suite.check()
    assert (suite.spec.folded, suite.spec.cycle_searches) == (4, 1)
    suite.check()
    suite.check()
    assert (suite.spec.folded, suite.spec.cycle_searches) == (4, 1)
    assert suite.checks_run == 3


def test_rewind_above_the_cursor_folds_nothing_twice():
    suite, rs = make_suite(r1=StubReplica("G1"))
    rs["r1"].deliver(1, "S1", 0)
    suite.check()
    rs["r1"].deliver(2, "S1", 1)
    mark = suite.mark("r1")
    rs["r1"].deliver(3, "S1", 2)       # never checked before the crash
    suite.rewind("r1", mark)
    rs["r1"].deliver(3, "S1", 2)
    suite.check()
    assert _folded_everything(suite) and suite.spec.folded == 3


def test_rewind_below_the_cursor_refolds_only_the_replay():
    suite, rs = make_suite(r1=StubReplica("G1"))
    for position in range(4):
        rs["r1"].deliver(position, "S1", position)
    suite.check()
    suite.rewind("r1", 1)
    for position in range(1, 4):
        rs["r1"].deliver(position, "S1", position)
    suite.check()
    assert suite.spec.folded == 4 + 3
