"""The column-backed log and instance set against plain references.

``AcceptorLog`` keeps its instances in columns indexed from the trim
horizon, and ``InstanceSet`` keeps instances as runs.  Both must be
indistinguishable, through every public call, from the obvious
structures they replace: a dict of per-instance entries and a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.log import AcceptorLog, InstanceSet, TrimError

INSTANCES = 24


@dataclass
class _Entry:
    vrnd: int = -1
    value: Any = None
    decided: bool = False


class _ReferenceLog:
    """An acceptor log as one entry object per instance in a dict."""

    def __init__(self):
        self.entries: dict[int, _Entry] = {}
        self.trimmed_below = 0
        self.highest_instance = -1

    def entry(self, instance):
        if instance < self.trimmed_below:
            raise TrimError(f"instance {instance} was trimmed")
        if instance not in self.entries:
            self.entries[instance] = _Entry()
            self.highest_instance = max(self.highest_instance, instance)
        return self.entries[instance]

    def get(self, instance):
        return self.entries.get(instance)

    def accept(self, instance, ballot, value):
        entry = self.entry(instance)
        entry.vrnd, entry.value = ballot, value

    def learn(self, instance, value):
        entry = self.entry(instance)
        if entry.value is None:
            entry.value = value
            entry.vrnd = max(entry.vrnd, 0)
        entry.decided = True

    def mark_decided(self, instance):
        entry = self.entry(instance)
        if entry.value is None:
            raise ValueError(f"instance {instance} decided without a value")
        entry.decided = True

    def decided_value(self, instance):
        if instance < self.trimmed_below:
            raise TrimError(f"instance {instance} was trimmed")
        entry = self.entries.get(instance)
        if entry is None or not entry.decided:
            raise KeyError(f"instance {instance} is not decided here")
        return entry.value

    def decided_instances(self):
        return sorted(i for i, e in self.entries.items() if e.decided)

    def trim(self, below):
        if below <= self.trimmed_below:
            return 0
        for instance in sorted(self.entries):
            if instance < below and not self.entries[instance].decided:
                raise TrimError(
                    f"cannot trim undecided instance {instance} (< {below})"
                )
        dropped = [i for i in self.entries if i < below]
        for instance in dropped:
            del self.entries[instance]
        self.trimmed_below = below
        return len(dropped)


def _fields(entry):
    return None if entry is None else (entry.vrnd, entry.value, entry.decided)


def _outcome(call):
    """What a call returns or raises, comparable across the two logs."""
    try:
        result = call()
    except (TrimError, KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(result, "vrnd"):
        return "entry", _fields(result)
    return "ok", result


instances = st.integers(min_value=0, max_value=INSTANCES)
values = st.sampled_from([None, "a", "b", "c"])
operations = st.one_of(
    st.tuples(st.just("accept"), instances, st.integers(0, 3), values),
    st.tuples(st.just("learn"), instances, values),
    st.tuples(st.just("mark_decided"), instances),
    st.tuples(st.just("trim"), st.integers(0, INSTANCES + 4)),
    st.tuples(st.just("get"), instances),
    st.tuples(st.just("entry"), instances),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
def test_column_log_matches_the_dict_of_entries(ops):
    log, reference = AcceptorLog(), _ReferenceLog()
    for name, *args in ops:
        assert _outcome(lambda: getattr(log, name)(*args)) == _outcome(
            lambda: getattr(reference, name)(*args)
        ), (name, args)
        assert log.highest_instance == reference.highest_instance
        assert log.trimmed_below == reference.trimmed_below
        decided = reference.decided_instances()
        assert log.decided_instances() == decided
        assert log.highest_decided == (decided[-1] if decided else -1)
        assert len(log) == len(reference.entries)
        for instance in range(-1, INSTANCES + 6):
            held = reference.get(instance)
            assert log.is_decided(instance) == (
                held is not None and held.decided
            )
            assert _fields(log.get(instance)) == _fields(held)
            assert _outcome(lambda: log.decided_value(instance)) == _outcome(
                lambda: reference.decided_value(instance)
            )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    st.permutations(range(30)),
)
def test_instance_set_matches_a_set(scattered, in_some_order):
    runs, reference = InstanceSet(), set()
    for instance in scattered + list(in_some_order):
        runs.add(instance)
        reference.add(instance)
        assert len(runs) == len(reference)
        for probe in range(-2, 43):
            assert (probe in runs) == (probe in reference), probe
