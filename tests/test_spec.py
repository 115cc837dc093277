"""One conformance table, three drivers.

Each case is a short history plus the set of properties it must raise.
The same history is run through :class:`repro.spec.SafetySpec`
directly, through :class:`repro.faults.invariants.InvariantSuite` over stub
replicas (in-process front-end) and through
:class:`repro.obs.audit.SafetyCertifier` over synthesised trace events
(trace front-end): one statement of the properties, so one verdict.

A history is a list of steps over observers named ``node/replica``:

``("deliver", observer, group, stream, position, msg_id)``
``("merge", observer, group, request_id, point)``
``("recover", observer, index)``
    The observer is restored to its state after ``index`` deliveries.
    Core and suite see a ``recover`` event / a log rewind.  Traces carry
    no such event: what a trace shows of a recovery is a restarted
    worker -- a *new* observer (``node-r1/replica``) that replays the
    restored prefix -- so that is what the certifier driver synthesises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import invariants
from repro.faults.invariants import InvariantSuite, InvariantViolation
from repro.obs import audit
from repro.obs.audit import SafetyCertifier
from repro.spec import PROPERTIES, ReplayBelowFloor, SafetySpec

from tests.faults.test_invariants import StubReplica


def deliver(observer, stream, position, msg_id, group="g1"):
    return ("deliver", observer, group, stream, position, msg_id)


def merge(observer, request_id, point, group="g1"):
    return ("merge", observer, group, request_id, point)


def recover(observer, index):
    return ("recover", observer, index)


# -- drivers -----------------------------------------------------------

def through_core(history, bound=None):
    spec = SafetySpec(bound)
    logs: dict = {}
    found = []
    for step in history:
        if step[0] == "deliver":
            _, observer, group, stream, position, msg_id = step
            logs.setdefault(observer, []).append((stream, position))
            found += spec.deliver(observer, group, stream, position, msg_id)
        elif step[0] == "merge":
            found += spec.merge_point(*step[1:])
        else:
            _, observer, index = step
            del logs[observer][index:]
            spec.recover(observer, index, dict(logs[observer]))
        found += spec.check_acyclic()
    assert all(v.property in PROPERTIES for v in found)
    return {v.property for v in found}


def through_suite(history, check_every=1, bound=None):
    """``check()`` after every ``check_every`` steps and at the end --
    what it raises each time is collected, not terminal as in a run.
    ``bound`` replaces the suite's own spec bound."""
    groups = {step[1]: step[2] for step in history if step[0] != "recover"}
    replicas = {name: StubReplica(group) for name, group in groups.items()}
    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(invariants, "_SPEC_BOUND", bound)
        suite = InvariantSuite(replicas)
    found = set()

    def check():
        try:
            suite.check()
        except InvariantViolation as violation:
            assert str(violation) == violation.violations[0].message
            found.update(v.property for v in violation.violations)

    for count, step in enumerate(history, 1):
        if step[0] == "deliver":
            _, observer, _, stream, position, msg_id = step
            replicas[observer].deliver(msg_id, stream, position)
        elif step[0] == "merge":
            _, observer, _, request_id, point = step
            replicas[observer].merger.stats.merge_points[request_id] = point
        else:
            suite.rewind(step[1], step[2])
        if count % check_every == 0:
            check()
    check()
    assert suite.spec.folded >= sum(len(l.records) for l in suite.logs.values())
    return found


def _trace_events(history):
    """The history as the trace events a deploy run would have written."""
    incarnation: dict = {}       # observer -> restarts so far
    logs: dict = {}              # observer -> its deliver events
    seq = 0

    def identity(observer):
        node, replica = observer.split("/")
        restarts = incarnation.get(observer, 0)
        return (f"{node}-r{restarts}" if restarts else node), replica

    for step in history:
        seq += 1
        base = {"ts": 0.01 * seq, "seq": seq}
        if step[0] == "deliver":
            _, observer, group, stream, position, msg_id = step
            node, replica = identity(observer)
            event = {
                **base, "kind": "replica.deliver", "cat": "replica",
                "node": node, "replica": replica, "group": group,
                "stream": stream, "position": position, "msg_id": msg_id,
            }
            logs.setdefault(observer, []).append(event)
            yield event
        elif step[0] == "merge":
            _, observer, group, request_id, point = step
            node, replica = identity(observer)
            yield {
                **base, "kind": "merge.subscribe.commit", "cat": "merge",
                "node": node, "replica": replica, "group": group,
                "stream": "s9", "request_id": request_id,
                "merge_point": point, "waited": 0.0,
            }
        else:
            _, observer, index = step
            incarnation[observer] = incarnation.get(observer, 0) + 1
            node, _ = identity(observer)
            del logs[observer][index:]
            for event in logs[observer]:
                yield {**event, **base, "node": node}


def through_certifier(history, bound=None):
    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(audit, "_COMPACT_LIMIT", bound)
        certifier = SafetyCertifier()
    returned = []
    for event in _trace_events(history):
        returned += certifier.observe(event)
        returned += certifier.check_acyclic()
    assert returned == certifier.violations
    assert certifier.summary()["ok"] == (not returned)
    return {v.property for v in returned}


# -- the table ---------------------------------------------------------

A, B, C = "n1/r1", "n2/r2", "n3/r3"

_LONG = [deliver(A, "s1", position, position) for position in range(300)]

CASES = {
    "clean": ([
        deliver(A, "s1", 0, 100), deliver(A, "s1", 1, 101),
        deliver(A, "s1", 2, 102),
        deliver(B, "s1", 0, 100), deliver(B, "s1", 1, 101),
        deliver(B, "s1", 2, 102),
    ], set()),
    "a lagging observer is a prefix": ([
        deliver(A, "s1", 0, 1), deliver(A, "s1", 1, 2),
        deliver(A, "s1", 2, 3), deliver(B, "s1", 0, 1),
    ], set()),
    "skipped positions are not gaps": ([
        deliver(A, "s1", 0, 1), deliver(A, "s1", 40, 2),
        deliver(B, "s1", 0, 1), deliver(B, "s1", 40, 2),
    ], set()),
    "interleaved streams, same interleaving": ([
        deliver(observer, stream, position, msg_id)
        for observer in (A, B)
        for stream, position, msg_id in (
            ("s1", 0, 10), ("s2", 0, 20), ("s1", 1, 11), ("s2", 1, 21),
        )
    ], set()),
    "two groups interleave shared streams consistently": ([
        deliver(A, "s1", 0, 10, "gA"), deliver(A, "s2", 0, 20, "gA"),
        deliver(A, "s1", 1, 11, "gA"),
        deliver(B, "s1", 0, 10, "gB"), deliver(B, "s3", 0, 30, "gB"),
        deliver(B, "s1", 1, 11, "gB"),
    ], set()),
    # Live positions are 0-based: position 0 is compared like any other
    # (a compaction floor that starts at 1 would skip it).
    "stream disagreement at position 0, across groups": ([
        deliver(A, "s1", 0, 10, "gA"), deliver(B, "s1", 0, 99, "gB"),
    ], {"stream-agreement"}),
    "stream disagreement within a group": ([
        deliver(A, "s1", 1, 10), deliver(B, "s1", 1, 99),
    ], {"stream-agreement", "prefix-agreement"}),
    "a group's observers reorder two streams": ([
        deliver(A, "s1", 0, 10), deliver(A, "s2", 0, 20),
        deliver(B, "s2", 0, 20), deliver(B, "s1", 0, 10),
    ], {"prefix-agreement"}),
    "an observer diverges after a common prefix": ([
        deliver(A, "s1", 0, 1), deliver(A, "s1", 1, 2),
        deliver(B, "s1", 0, 1), deliver(B, "s2", 0, 3),
    ], {"prefix-agreement"}),
    "repeated position": ([
        deliver(A, "s1", 1, 10), deliver(A, "s1", 2, 11),
        deliver(A, "s1", 2, 11),
    ], {"duplicate-delivery"}),
    "regressed position": ([
        deliver(A, "s1", 5, 10), deliver(A, "s1", 3, 11),
    ], {"duplicate-delivery"}),
    # Caught per delivery: one group alone never runs the cycle search,
    # and a self-loop is not something that search should have to find.
    "one message at two consecutive positions, one group": ([
        deliver(A, "s1", 4, 77), deliver(A, "s1", 5, 77),
    ], {"integrity"}),
    "one message twice with others between, whole group": ([
        deliver(observer, "s1", position, msg_id)
        for observer in (A, B)
        for position, msg_id in ((0, 7), (1, 8), (2, 9), (3, 7))
    ], {"integrity"}),
    "merge point mismatch within a group": ([
        merge(A, 7, ("s2", 100)), merge(B, 7, ("s2", 101)),
    ], {"merge-point"}),
    "merge points agree": ([
        merge(A, 7, ("s2", 100)), merge(B, 7, ("s2", 100)),
        merge(A, 8, ("s3", 5)),
    ], set()),
    "recovery recomputes a merge point": ([
        deliver(A, "s1", 0, 1), merge(A, 7, 12), recover(A, 1),
        merge(A, 7, 13),
    ], {"merge-point"}),
    "faithful replay after recover": ([
        deliver(A, "s1", 0, 1), deliver(A, "s2", 0, 5),
        deliver(A, "s1", 1, 2), recover(A, 1),
        deliver(A, "s2", 0, 5), deliver(A, "s1", 1, 2),
        deliver(A, "s1", 2, 3),
    ], set()),
    "divergent replay after recover": ([
        deliver(A, "s1", 0, 1), deliver(A, "s1", 1, 2), recover(A, 0),
        deliver(A, "s1", 0, 1), deliver(A, "s1", 1, 9),
    ], {"stream-agreement", "prefix-agreement"}),
    "replay in another interleaving after recover": ([
        deliver(A, "s1", 0, 1), deliver(A, "s2", 0, 5), recover(A, 0),
        deliver(A, "s2", 0, 5), deliver(A, "s1", 0, 1),
    ], {"prefix-agreement"}),
    "restart as a new observer replaying from position 0": ([
        deliver(C, "s1", 0, 1), deliver(C, "s1", 1, 2),
        deliver("n3-r1/r3", "s1", 0, 1), deliver("n3-r1/r3", "s1", 1, 2),
        deliver("n3-r1/r3", "s1", 2, 3),
    ], set()),
    "Fig. 2 cycle, two groups": ([
        deliver(A, "s1", 0, "m1", "gA"), deliver(A, "s2", 0, "m2", "gA"),
        deliver(B, "s2", 0, "m2", "gB"), deliver(B, "s1", 0, "m1", "gB"),
    ], {"acyclic-order"}),
    "cycle a<b, b<c, c<a over three groups": ([
        deliver(A, "s1", 0, "a", "gA"), deliver(A, "s2", 0, "b", "gA"),
        deliver(B, "s2", 0, "b", "gB"), deliver(B, "s3", 0, "c", "gB"),
        deliver(C, "s3", 0, "c", "gC"), deliver(C, "s1", 0, "a", "gC"),
    ], {"acyclic-order"}),
}

# Compaction (bound 50: retire down to 50 past 75 entries).
COMPACTED = {
    "a long clean history stays clean": (_LONG, set()),
    "below the floor values are no longer compared": (
        _LONG + [deliver(B, "s1", 0, 999)], set(),
    ),
    "a fresh violation above the floor": (
        _LONG + [deliver(B, "s1", 299, 999, "g2")], {"stream-agreement"},
    ),
    "monotonicity below the floor": (
        _LONG + [deliver(B, "s1", 1, 1), deliver(B, "s1", 1, 1)],
        {"duplicate-delivery"},
    ),
}


@pytest.mark.parametrize("driver", [
    through_core, through_suite, through_certifier,
], ids=["core", "suite", "certifier"])
@pytest.mark.parametrize("name", CASES)
def test_conformance(name, driver):
    history, expected = CASES[name]
    assert driver(history) == expected


# (Histories with a recover are left out: rewinding records that were
# never folded is no event at all, so one final check sees less.)
@pytest.mark.parametrize("name", [
    name for name, (history, _) in CASES.items()
    if all(step[0] != "recover" for step in history)
])
def test_one_final_check_gives_the_same_verdict(name):
    history, expected = CASES[name]
    assert through_suite(history, check_every=len(history) + 1) == expected


@pytest.mark.parametrize("driver", [
    through_core, through_suite, through_certifier,
], ids=["core", "suite", "certifier"])
@pytest.mark.parametrize("name", COMPACTED)
def test_conformance_under_compaction(name, driver):
    history, expected = COMPACTED[name]
    assert driver(history, bound=50) == expected


# Bound 2 retires down to 2 entries past 3: most cases compact, and the
# suite still proves what each proves unbounded.
@pytest.mark.parametrize("name", {**CASES, **COMPACTED})
def test_the_suite_catches_every_case_at_a_small_bound(name):
    history, expected = {**CASES, **COMPACTED}[name]
    assert through_suite(history, bound=2) == expected


def test_a_recovery_below_a_compaction_floor_is_refused_not_checked_less():
    spec = SafetySpec(bound=50)
    for step in _LONG:
        spec.deliver(*step[1:])
    base = spec.groups["g1"].base
    with pytest.raises(ReplayBelowFloor, match=f"below group g1's "
                       f"compaction floor #{base}") as info:
        spec.recover(A, base - 1, {"s1": base - 2})
    assert (info.value.observer, info.value.floor) == (A, base)
    # Within the canon but below the stream's retired positions (the
    # stream compacted through another group's observer).
    spec = SafetySpec(bound=50)
    for step in _LONG:
        spec.deliver(B, "g2", *step[3:])
    floor = spec.streams["s1"].floor
    spec.deliver(A, "g1", "s1", 0, 0)
    spec.deliver(A, "g1", "s1", floor, floor)
    with pytest.raises(ReplayBelowFloor, match=f"replays s1 from position "
                       f"1, below its compaction floor {floor}") as info:
        spec.recover(A, 1, {"s1": 0})
    assert info.value.floor == floor
    spec.recover(A, 2, {"s1": floor})       # above both floors: fine


def test_compaction_bounds_the_state():
    spec = SafetySpec(bound=50)
    for step in _LONG:
        assert spec.deliver(*step[1:]) == []
    assert 50 <= len(spec.streams["s1"].values) <= 75
    assert 50 <= len(spec.groups["g1"].canon) <= 75
    assert len(spec.groups["g1"].members) == len(spec.groups["g1"].canon)
    assert spec.streams["s1"].floor == min(spec.streams["s1"].values) > 0
    assert spec.groups["g1"].base == 300 - len(spec.groups["g1"].canon)
    assert spec.folded == 300


def test_recover_cannot_move_an_observer_forward():
    spec = SafetySpec()
    spec.deliver(A, "g1", "s1", 0, 1)
    with pytest.raises(ValueError, match="only 1 were observed"):
        spec.recover(A, 2, {"s1": 1})


def test_cycle_search_runs_only_for_two_groups_and_only_on_growth():
    spec = SafetySpec()
    spec.deliver(A, "gA", "s1", 0, 1)
    assert spec.check_acyclic() == [] and spec.cycle_searches == 0
    spec.deliver(B, "gB", "s1", 0, 1)
    assert spec.check_acyclic() == [] and spec.cycle_searches == 1
    assert spec.check_acyclic() == [] and spec.cycle_searches == 1
    spec.deliver(C, "gB", "s1", 0, 1)        # follows the canon: no growth
    assert spec.check_acyclic() == [] and spec.cycle_searches == 1
    spec.deliver(B, "gB", "s1", 1, 2)
    assert spec.check_acyclic() == [] and spec.cycle_searches == 2


# -- random histories, one injected fault ------------------------------

_FAULTS = (
    "none", "swap-value", "reorder", "repeat", "duplicate-message",
    "merge-point",
)


@st.composite
def faulty_histories(draw):
    """A clean two-group history over shared streams (both groups order
    everything by message id, so the union is acyclic), then at most one
    injected fault."""
    streams = ("s1", "s2", "s3")
    subscriptions = {"gA": draw(st.sets(st.sampled_from(streams), min_size=1)),
                     "gB": draw(st.sets(st.sampled_from(streams), min_size=1))}
    members = {"gA": ("n1/r1", "n2/r2"), "gB": ("n3/r3",)}
    length = draw(st.integers(2, 12))
    messages = []                    # (msg_id, stream, position), in order
    cursor = dict.fromkeys(streams, 0)
    for msg_id in range(100, 100 + length):
        stream = draw(st.sampled_from(streams))
        cursor[stream] += draw(st.integers(0, 2))     # skipped positions
        messages.append((msg_id, stream, cursor[stream]))
        cursor[stream] += 1
    sequences = {
        observer: [
            (stream, position, msg_id)
            for msg_id, stream, position in messages
            if stream in subscriptions[group]
        ][: draw(st.integers(0, length))]
        for group, observers in members.items() for observer in observers
    }
    fault = draw(st.sampled_from(_FAULTS))
    victim = draw(st.sampled_from(sorted(sequences)))
    seq = sequences[victim]
    if fault == "swap-value" and seq:
        i = draw(st.integers(0, len(seq) - 1))
        seq[i] = (seq[i][0], seq[i][1], 999)
    elif fault == "reorder" and len(seq) >= 2:
        i = draw(st.integers(0, len(seq) - 2))
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
    elif fault == "repeat" and seq:
        i = draw(st.integers(0, len(seq) - 1))
        seq.insert(i + 1, seq[i])
    elif fault == "duplicate-message" and seq:
        stream, position, _ = seq[-1]
        seq.append((stream, position + 1, seq[0][2]))
    group_of = {o: g for g, observers in members.items() for o in observers}
    # Interleave the observers' deliveries in a drawn order.
    remaining = {o: list(s) for o, s in sequences.items() if s}
    history = []
    while remaining:
        observer = draw(st.sampled_from(sorted(remaining)))
        stream, position, msg_id = remaining[observer].pop(0)
        if not remaining[observer]:
            del remaining[observer]
        history.append(
            deliver(observer, stream, position, msg_id, group_of[observer])
        )
    history.append(merge("n1/r1", 7, 40, "gA"))
    history.append(
        merge("n2/r2", 7, 41 if fault == "merge-point" else 40, "gA")
    )
    return history


@given(history=faulty_histories(), cadence=st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_front_ends_agree_on_random_histories(history, cadence):
    expected = through_core(history)
    assert through_certifier(history) == expected
    assert through_suite(history) == expected
    assert through_suite(history, bound=2) == through_core(history, bound=2)
    # Checking less often folds the logs one after the other instead of
    # in history order: another canon may be "first observed", the
    # verdict is the same.
    assert bool(through_suite(history, check_every=cadence)) == bool(expected)
