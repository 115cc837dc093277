"""Unit tests for the position-indexed token log."""

import pytest

from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, Batch, SkipToken


def test_append_advances_frontier_by_positions():
    log = TokenLog()
    log.append(AppValue(payload="a"))
    assert log.frontier == 1
    log.append(SkipToken(count=10))
    assert log.frontier == 11
    log.append(AppValue(payload="b"))
    assert log.frontier == 12


def test_token_covering_positions_inside_skip():
    log = TokenLog()
    log.append(AppValue(payload="a"))
    skip = SkipToken(count=5)
    log.append(skip)
    log.append(AppValue(payload="b"))
    for position in range(1, 6):
        token, index = log.token_covering(position)
        assert token is skip
        assert index == 1
    token, _ = log.token_covering(6)
    assert token.payload == "b"


def test_token_covering_beyond_frontier_returns_none():
    log = TokenLog()
    log.append(AppValue(payload="a"))
    token, _ = log.token_covering(1)
    assert token is None
    token, _ = log.token_covering(100)
    assert token is None


def test_token_covering_with_stale_hint():
    log = TokenLog()
    tokens = [AppValue(payload=i) for i in range(10)]
    for t in tokens:
        log.append(t)
    # hint far ahead and far behind both work
    token, _ = log.token_covering(2, hint=9)
    assert token is tokens[2]
    token, _ = log.token_covering(8, hint=0)
    assert token is tokens[8]


def test_append_batch_flattens_tokens():
    log = TokenLog()
    batch = Batch(tokens=(AppValue(payload="x"), SkipToken(count=3)))
    log.append_batch(batch)
    assert log.frontier == 4
    assert log.token_count() == 2


def test_position_before_base_rejected():
    log = TokenLog(start_position=100)
    with pytest.raises(ValueError):
        log.token_covering(50)


def test_start_of_and_token_at():
    log = TokenLog()
    log.append(SkipToken(count=4))
    log.append(AppValue(payload="a"))
    assert log.start_of(0) == 0
    assert log.start_of(1) == 4
    assert log.token_covering(log.start_of(1))[0].payload == "a"


def test_zero_position_token_rejected():
    log = TokenLog()
    with pytest.raises(ValueError):
        log.append(SkipToken(count=0))


def test_replay_point_before_the_first_whole_batch_is_the_seed():
    # A log seeded by recovery at (instance 49, position 228): until a
    # whole batch ends at or below the cursor, the replay point is that
    # seed -- both halves, never instance 0 at the later base.
    log = TokenLog(start_position=228, start_instance=49)
    assert log.replay_point(228) == (49, 228)
    log.append_batch(
        Batch(tokens=(AppValue(payload="a"), SkipToken(count=4))),
        instance=49,
    )
    assert log.replay_point(229) == (49, 228)
    assert log.replay_point(233) == (50, 233)


def test_rebase_moves_the_replay_point_to_the_trim_horizon():
    log = TokenLog()
    log.rebase(24, 7)
    assert log.replay_point(24) == (7, 24)
