"""Unit tests for the acceptor log."""

import pytest

from repro.storage.log import AcceptorLog, TrimError


def test_entry_created_on_demand():
    log = AcceptorLog()
    entry = log.entry(3)
    assert entry.vrnd == -1
    assert entry.value is None
    assert not entry.decided
    assert log.highest_instance == 3


def test_accept_records_ballot_and_value():
    log = AcceptorLog()
    log.accept(0, 5, "v")
    assert log.get(0).vrnd == 5
    assert log.get(0).value == "v"


def test_mark_decided_requires_value():
    log = AcceptorLog()
    log.entry(0)
    with pytest.raises(ValueError):
        log.mark_decided(0)
    log.accept(0, 1, "v")
    log.mark_decided(0)
    assert log.is_decided(0)
    assert log.decided_value(0) == "v"


def test_decided_value_of_unknown_instance_raises():
    log = AcceptorLog()
    with pytest.raises(KeyError):
        log.decided_value(7)


def test_trim_requires_decided_prefix():
    log = AcceptorLog()
    log.accept(0, 1, "a")
    log.mark_decided(0)
    log.accept(1, 1, "b")   # accepted but undecided
    with pytest.raises(TrimError):
        log.trim(2)
    log.trim(1)
    assert log.trimmed_below == 1
    assert len(log) == 1


def test_trimmed_instance_raises_on_access():
    log = AcceptorLog()
    log.accept(0, 1, "a")
    log.mark_decided(0)
    log.trim(1)
    with pytest.raises(TrimError):
        log.entry(0)
    with pytest.raises(TrimError):
        log.decided_value(0)


def test_trim_is_idempotent_and_monotonic():
    log = AcceptorLog()
    for i in range(4):
        log.accept(i, 1, i)
        log.mark_decided(i)
    assert log.trim(2) == 2
    assert log.trim(2) == 0
    assert log.trim(1) == 0          # going backwards is a no-op
    assert log.trimmed_below == 2


def test_decided_instances_sorted():
    log = AcceptorLog()
    for i in (3, 0, 2):
        log.accept(i, 1, i)
        log.mark_decided(i)
    assert log.decided_instances() == [0, 2, 3]


def test_entry_is_a_read_only_view():
    log = AcceptorLog()
    log.accept(0, 2, "v")
    entry = log.entry(0)
    with pytest.raises(AttributeError):
        entry.decided = True
    assert not log.is_decided(0)
    assert log.entry(0) == (2, "v", False)
