"""The column-shaped delivery log reads exactly like a per-value one.

:class:`repro.faults.invariants.DeliveryLog` keeps columns of
identities: a few numbers per delivered run and a ``msg_id`` per value,
never a value.  Here it is driven side by side with ``RecordLog``, a
reference that keeps one record per value, payload included, and folds
them into its own :class:`repro.spec.SafetySpec` the way the suite did
before runs: sequences, records, positions, ``same_sequence``, the
``check()`` verdicts (violation for violation, delivery index included)
and a ``mark()`` taken inside a run followed by ``rewind()`` must all
come out the same, for runs of 1, 2 and 180 values and over random
scripts of runs, checkpoints, recoveries and checks.  The payload digest
is the runner's :class:`repro.faults.runner.DeliveryDigest`, attached as
the runner attaches it, and must equal the reference's digest over its
records.
"""

import hashlib
import types
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import invariants
from repro.faults.invariants import (
    DeliveryRecord,
    InvariantSuite,
    InvariantViolation,
)
from repro.faults.runner import DeliveryDigest
from repro.spec import ReplayBelowFloor, SafetySpec

RUN_LENGTHS = (1, 2, 180)


class Record(NamedTuple):
    """The reference's per-value entry: what the log used to keep."""

    stream: str
    position: int
    msg_id: object
    payload: object
    at: float


class RecordLog:
    """The reference: one record per delivered value."""

    def __init__(self, group):
        self.group = group
        self.records = []
        self.folded = 0

    def sequence(self):
        return [(r.stream, r.position, r.msg_id) for r in self.records]

    def delivery_records(self):
        return [
            DeliveryRecord(r.stream, r.position, r.msg_id, r.at)
            for r in self.records
        ]

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
    """An :class:`InvariantSuite` plus a :class:`DeliveryDigest` per
    replica (attached after the suite, as the runner does) over stub
    replicas, and the reference, fed the same deliveries and checked at
    the same instants.

    ``checkpoint``/``recover`` are the runner's pair: the log is marked
    and the digest copied, then both go back there.  ``rewind`` moves
    the log to any earlier mark, which the runner never does; a digest
    follows only its own mark, so after one the replica's digest is no
    longer compared."""

    def __init__(self, **groups):
        self.env = types.SimpleNamespace(now=0.0)
        self.replicas = {
            name: StubReplica(group, self.env)
            for name, group in groups.items()
        }
        self.suite = InvariantSuite(self.replicas)
        self.digests = {}
        for name in sorted(self.replicas):
            digest = self.digests[name] = DeliveryDigest()
            self.replicas[name].add_run_observer(digest.observe)
        self.checkpoints = dict.fromkeys(groups, 0)   # as of t = 0
        self.untracked = set()
        self.spec = SafetySpec()
        self.reference = {
            name: RecordLog(group) for name, group in sorted(groups.items())
        }

    def deliver(self, name, stream, first, msg_ids):
        """``name`` delivers ``msg_ids`` as one run from ``first`` on."""
        values = [
            types.SimpleNamespace(msg_id=msg_id, payload=("p", msg_id))
            for msg_id in msg_ids
        ]
        for observer in self.replicas[name].observers:
            observer(stream, first, values)
        self.reference[name].records.extend(
            Record(stream, position, v.msg_id, v.payload, self.env.now)
            for position, v in enumerate(values, first)
        )
        self.env.now += 0.001

    def check(self):
        """Both verdicts: what the suite raised and what the reference
        folds to (``()`` for nothing)."""
        at = self.env.now
        found = []
        for name, log in self.reference.items():
            if log.folded < len(log.records):
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

    def checkpoint(self, name):
        self.checkpoints[name] = self.suite.mark(name)
        self.digests[name].mark()
        return self.checkpoints[name]

    def recover(self, name):
        self._rewind(name, self.checkpoints[name])
        self.digests[name].rewind()

    def rewind(self, name, mark):
        self._rewind(name, mark)
        self.untracked.add(name)

    def _rewind(self, name, mark):
        self.suite.rewind(name, mark)
        log = self.reference[name]
        del log.records[mark:]
        if mark < log.folded:
            log.folded = mark
            self.spec.recover(
                name, mark, {r.stream: r.position for r in log.records}
            )

    def assert_same_logs(self):
        logs = self.suite.logs
        for name, reference in self.reference.items():
            log = logs[name]
            assert log.sequence() == reference.sequence(), name
            assert log.records == reference.delivery_records(), name
            assert log.delivered == log.mark() == len(reference.records)
            assert log.positions() == {
                r.stream: r.position for r in reference.records
            }
            if name not in self.untracked:
                assert self.digests[name].hexdigest() == reference.digest()
            for other, other_reference in self.reference.items():
                assert logs[other].same_sequence(log) == (
                    other_reference.sequence() == reference.sequence()
                ), (name, other)
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
    twin.assert_same_logs()


@pytest.mark.parametrize("length", RUN_LENGTHS)
@pytest.mark.parametrize("folded_first", (False, True))
def test_a_mark_inside_a_run_rewinds_and_replays_like_the_per_record_log(
    length, folded_first,
):
    twin = Twin(r1="G1", r2="G1")
    total = 2 * 180 + 11
    for first, msg_ids in _runs(total, length):
        twin.deliver("r2", "S1", first, msg_ids)
    # r1 is marked after 181 values, goes on, then recovers from its
    # genesis checkpoint and replays in runs of ``length``: the mark now
    # falls inside a run of 2 or of 180.
    for first, msg_ids in _runs(181, 1):
        twin.deliver("r1", "S1", first, msg_ids)
    mark = twin.suite.mark("r1")
    assert mark == 181
    for first, msg_ids in _runs(total, 50, start=mark):
        twin.deliver("r1", "S1", first, msg_ids)
    if folded_first:
        assert twin.check() == ((), ())
    twin.recover("r1")
    twin.assert_same_logs()
    for first, msg_ids in _runs(total, length):
        twin.deliver("r1", "S1", first, msg_ids)
    assert twin.check() == ((), ())
    twin.assert_same_logs()
    log = twin.suite.logs["r1"]
    runs_before = len(log.lengths)
    twin.rewind("r1", mark)
    assert log.rewinds == 2 and log.delivered == mark
    assert log.firsts[-1] + log.lengths[-1] == mark
    if length > 1:                  # the run that held the mark, split
        assert log.lengths[-1] == mark - 180
        assert len(log.lengths) == runs_before - (total - 180 - 1) // length
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


def test_an_id_that_is_not_a_64_bit_int_widens_the_column():
    twin = Twin(r1="G1", r2="G1")
    for name in ("r1", "r2"):
        twin.deliver(name, "S1", 0, [1, 2])
        twin.deliver(name, "S2", 0, ["m3", 2 ** 70])
        twin.deliver(name, "S1", 2, [4])
    assert twin.check() == ((), ())
    assert isinstance(twin.suite.logs["r1"].msg_ids, list)
    twin.assert_same_logs()
    twin.recover("r1")
    assert twin.suite.logs["r1"].sequence() == []
    twin.assert_same_logs()


def test_one_check_over_a_long_backlog_compares_every_replica(monkeypatch):
    """The spec keeps a window of 50 here, but one check over 300 new
    values a replica still catches a divergence at the start of the
    second replica's backlog: the logs are folded in turns."""
    monkeypatch.setattr(invariants, "_SPEC_BOUND", 50)
    twin = Twin(r1="G1", r2="G1")
    for first, msg_ids in _runs(300, 10):
        twin.deliver("r1", "S1", first, msg_ids)
        twin.deliver("r2", "S1", first, [
            7 if msg_id == 1010 else msg_id for msg_id in msg_ids
        ])
    raised, reference = twin.check()
    assert raised == reference
    assert [(v.property, v.position) for v in raised] == [
        ("stream-agreement", 10), ("prefix-agreement", 10),
    ]
    assert len(twin.suite.spec.groups["G1"].canon) <= 75
    twin.assert_same_logs()


def test_a_rewind_below_the_compaction_floor_raises_naming_it(monkeypatch):
    monkeypatch.setattr(invariants, "_SPEC_BOUND", 50)
    twin = Twin(r1="G1")
    for first, msg_ids in _runs(300, 10):
        twin.deliver("r1", "S1", first, msg_ids)
    twin.check()
    base = twin.suite.spec.groups["G1"].base
    assert base > 0
    with pytest.raises(ReplayBelowFloor, match=f"r1 .*floor #{base}") as info:
        twin.suite.rewind("r1", base - 1)
    assert (info.value.observer, info.value.floor) == ("r1", base)


# -- random scripts ----------------------------------------------------

def _canon(draw):
    """A group's delivery order: segments of consecutive positions of
    one stream (a run never spans two), positions skipped between."""
    cursor = {"S1": 0, "S2": 0}
    order = []
    for _ in range(draw(st.integers(1, 8))):
        stream = draw(st.sampled_from(sorted(cursor)))
        cursor[stream] += draw(st.integers(0, 2))
        for _ in range(draw(st.integers(1, 12))):
            order.append((stream, cursor[stream], 10 * cursor[stream]
                          + (stream == "S2")))
            cursor[stream] += 1
    return order


@st.composite
def scripts(draw):
    groups = {"r1": "G1", "r2": "G1", "r3": "G2"}
    canons = {"G1": _canon(draw), "G2": _canon(draw)}
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("deliver"), st.sampled_from(sorted(groups)),
                  st.integers(1, 15), st.booleans()),
        st.tuples(st.just("checkpoint"), st.sampled_from(sorted(groups))),
        st.tuples(st.just("recover"), st.sampled_from(sorted(groups))),
        st.tuples(st.just("check")),
    ), max_size=40))
    return groups, canons, steps


def _next_run(canon, index, length):
    """Up to ``length`` entries of ``canon`` from ``index`` on that one
    run can carry: one stream, consecutive positions."""
    run = canon[index:index + 1]
    for entry in canon[index + 1:index + length]:
        if entry[0] != run[-1][0] or entry[1] != run[-1][1] + 1:
            break
        run.append(entry)
    return run


@given(script=scripts())
@settings(max_examples=200, deadline=None)
def test_random_scripts_read_like_the_per_record_log(script):
    groups, canons, steps = script
    twin = Twin(**groups)
    for step in steps:
        if step[0] == "deliver":
            _, name, length, corrupt = step
            run = _next_run(
                canons[groups[name]], twin.suite.logs[name].delivered, length
            )
            if not run:
                continue
            msg_ids = [msg_id for _stream, _position, msg_id in run]
            if corrupt:
                msg_ids[-1] = 999
            twin.deliver(name, run[0][0], run[0][1], msg_ids)
        elif step[0] == "checkpoint":
            twin.checkpoint(step[1])
        elif step[0] == "recover":
            twin.recover(step[1])
        else:
            raised, reference = twin.check()
            assert raised == reference
        twin.assert_same_logs()
    raised, reference = twin.check()
    assert raised == reference
    twin.assert_same_logs()
