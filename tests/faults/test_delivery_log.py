"""The run-shaped delivery log reads exactly like a per-value one.

:class:`repro.faults.invariants.DeliveryLog` keeps one entry per
delivered run.  Here it is driven side by side with ``RecordLog``, a
reference that keeps one :class:`DeliveryRecord` per value and folds
them into its own :class:`repro.spec.SafetySpec` the way the suite did
before runs: sequences, digests, records, the ``check()`` verdicts
(violation for violation, delivery index included) and a ``mark()``
taken inside a run followed by ``rewind()`` must all come out the same,
for runs of 1, 2 and 180 values.
"""

import hashlib
import types

import pytest

from repro.faults.invariants import (
    DeliveryRecord,
    InvariantSuite,
    InvariantViolation,
)
from repro.spec import SafetySpec

RUN_LENGTHS = (1, 2, 180)


class RecordLog:
    """The reference: one record per delivered value."""

    def __init__(self, group):
        self.group = group
        self.records = []
        self.folded = 0

    def sequence(self):
        return [(r.stream, r.position, r.msg_id) for r in self.records]

    def digest(self):
        hasher = hashlib.sha256()
        for r in self.records:
            hasher.update(f"{r.stream}:{r.position}:{r.payload!r};".encode())
        return hasher.hexdigest()


class StubReplica:
    """What the suite reads of a replica."""

    def __init__(self, group, env):
        self.group = group
        self.env = env
        self.subscriptions = ("S1",)
        self.merger = types.SimpleNamespace(
            stats=types.SimpleNamespace(merge_points={})
        )
        self.observers = []

    def add_run_observer(self, observer):
        self.observers.append(observer)


class Twin:
    """An :class:`InvariantSuite` over stub replicas and the reference,
    fed the same deliveries and checked at the same instants."""

    def __init__(self, **groups):
        self.env = types.SimpleNamespace(now=0.0)
        self.replicas = {
            name: StubReplica(group, self.env)
            for name, group in groups.items()
        }
        self.suite = InvariantSuite(self.replicas)
        self.spec = SafetySpec()
        self.reference = {
            name: RecordLog(group) for name, group in sorted(groups.items())
        }

    def deliver(self, name, stream, first, msg_ids):
        """``name`` delivers ``msg_ids`` as one run from ``first`` on."""
        values = [
            types.SimpleNamespace(msg_id=msg_id, payload=f"p{msg_id}")
            for msg_id in msg_ids
        ]
        for observer in self.replicas[name].observers:
            observer(stream, first, values)
        self.reference[name].records.extend(
            DeliveryRecord(stream, position, v.msg_id, v.payload, self.env.now)
            for position, v in enumerate(values, first)
        )
        self.env.now += 0.001

    def check(self):
        """Both verdicts: what the suite raised and what the reference
        folds to (``()`` for nothing)."""
        at = self.env.now
        found = []
        for name, log in self.reference.items():
            found += self.spec.fold(
                name, log.group, log.records[log.folded:], at
            )
            log.folded = len(log.records)
        found += self.spec.check_acyclic(at)
        try:
            self.suite.check()
        except InvariantViolation as violation:
            return violation.violations, tuple(found)
        return (), tuple(found)

    def rewind(self, name, mark):
        self.suite.rewind(name, mark)
        log = self.reference[name]
        del log.records[mark:]
        if mark < log.folded:
            log.folded = mark
            self.spec.recover(
                name, mark, {r.stream: r.position for r in log.records}
            )

    def assert_same_logs(self):
        for name, reference in self.reference.items():
            log = self.suite.logs[name]
            assert log.sequence() == reference.sequence(), name
            assert log.digest() == reference.digest(), name
            assert log.records == reference.records, name
            assert log.delivered == log.mark() == len(reference.records)
            assert log.positions() == {
                r.stream: r.position for r in reference.records
            }
        assert self.suite.spec.folded == self.spec.folded


def _runs(total, length, start=0):
    """``(first, msg_ids)`` runs of ``length`` covering ``total``
    positions from ``start`` (the last one shorter)."""
    return [
        (first, list(range(1000 + first, 1000 + min(first + length, total))))
        for first in range(start, total, length)
    ]


@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_run_log_reads_like_the_per_record_log(length):
    twin = Twin(r1="G1", r2="G1", r3="G2")
    total = 3 * 180 + 7
    # r1 in runs of ``length``, r2 value by value, r3 in runs of one
    # more: three chunkings of one sequence, checked as they go.
    chunkings = {
        "r1": _runs(total, length), "r2": _runs(total, 1),
        "r3": _runs(total, length + 1),
    }
    for name, runs in chunkings.items():
        for index, (first, msg_ids) in enumerate(runs):
            twin.deliver(name, "S1", first, msg_ids)
            if index % 5 == 0:
                assert twin.check() == ((), ())
    assert twin.check() == ((), ())
    twin.assert_same_logs()
    twin.suite.assert_converged()
    assert twin.suite.digest() != ""
    assert twin.suite.logs["r1"].same_sequence(twin.suite.logs["r3"])


@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_prefix_agreement_violation_is_reported_at_the_same_index(length):
    twin = Twin(r1="G1", r2="G1")
    total = 2 * 180
    wrong = total // 2 + 3          # inside a run of every length here
    for first, msg_ids in _runs(total, length):
        twin.deliver("r1", "S1", first, msg_ids)
    twin.check()
    for first, msg_ids in _runs(total, length):
        twin.deliver("r2", "S1", first, [
            msg_id + 7 if msg_id == 1000 + wrong else msg_id
            for msg_id in msg_ids
        ])
    raised, reference = twin.check()
    assert raised == reference
    assert [v.property for v in raised] == [
        "stream-agreement", "prefix-agreement"
    ]
    assert f"delivery #{wrong}:" in raised[1].message
    assert raised[0].position == wrong and raised[0].observer == "r2"


@pytest.mark.parametrize("length", RUN_LENGTHS)
@pytest.mark.parametrize("folded_first", (False, True))
def test_a_mark_inside_a_run_rewinds_and_replays_like_the_per_record_log(
    length, folded_first,
):
    twin = Twin(r1="G1", r2="G1")
    total = 2 * 180 + 11
    for first, msg_ids in _runs(total, length):
        twin.deliver("r2", "S1", first, msg_ids)
    # r1 takes a checkpoint after 181 values, goes on, then recovers
    # from genesis and replays in runs of ``length``: the mark now
    # falls inside a run of 2 or of 180.
    for first, msg_ids in _runs(181, 1):
        twin.deliver("r1", "S1", first, msg_ids)
    mark = twin.suite.mark("r1")
    assert mark == 181
    for first, msg_ids in _runs(total, 50, start=mark):
        twin.deliver("r1", "S1", first, msg_ids)
    if folded_first:
        assert twin.check() == ((), ())
    twin.rewind("r1", 0)
    for first, msg_ids in _runs(total, length):
        twin.deliver("r1", "S1", first, msg_ids)
    assert twin.check() == ((), ())
    log = twin.suite.logs["r1"]
    runs_before = len(log.runs)
    twin.rewind("r1", mark)
    assert log.rewinds == 2 and log.delivered == mark
    stream, first, values, _at = log.runs[-1]
    assert first + len(values) == mark
    if length > 1:                  # the run that held the mark, split
        assert len(values) == mark - 180
        assert len(log.runs) == runs_before - (total - 180 - 1) // length
    twin.assert_same_logs()
    # The replay, in other runs than the first time round.
    for first, msg_ids in _runs(total, 7, start=mark):
        twin.deliver("r1", "S1", first, msg_ids)
    assert twin.check() == ((), ())
    twin.assert_same_logs()
    twin.suite.assert_converged()
    # A replay that diverges after one more rewind inside a run is
    # caught at the same index either way.
    twin.rewind("r1", mark + 1)
    twin.deliver("r1", "S1", mark + 1, [5, 1000 + mark + 2])
    raised, reference = twin.check()
    assert raised == reference and raised
    assert raised[0].position == mark + 1
