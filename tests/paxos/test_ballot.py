"""Unit tests for ballot arithmetic and quorums."""

import pytest

from repro.paxos.ballot import ballot_for, next_ballot, owner_of, quorum_size


def test_ballots_are_disjoint_between_coordinators():
    seen = set()
    for coordinator in range(3):
        for attempt in range(5):
            ballot = ballot_for(coordinator, attempt, 3)
            assert ballot not in seen
            seen.add(ballot)
            assert owner_of(ballot, 3) == coordinator


def test_next_ballot_is_strictly_greater_and_owned():
    current = ballot_for(1, 4, 3)
    for owner in range(3):
        nxt = next_ballot(current, owner, 3)
        assert nxt > current
        assert owner_of(nxt, 3) == owner


def test_ballot_for_validates_range():
    with pytest.raises(ValueError):
        ballot_for(3, 0, 3)
    with pytest.raises(ValueError):
        ballot_for(0, -1, 3)


def test_quorum_size_majority():
    assert quorum_size(1) == 1
    assert quorum_size(3) == 2
    assert quorum_size(4) == 3
    assert quorum_size(5) == 3


def test_quorum_size_rejects_zero():
    with pytest.raises(ValueError):
        quorum_size(0)


def test_two_quorums_always_intersect():
    for n in range(1, 10):
        q = quorum_size(n)
        assert 2 * q > n
