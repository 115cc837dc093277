"""The windowed token log against a log that keeps everything.

A replica's :class:`TokenLog` drops what its one reader, the merger's
:class:`StreamCursor`, has read.  Over random sequences of appended
batches, cursor advances and rebases, everything the merger reads --
``peek``, ``skip_run``, ``value_run``, ``token_end`` -- and what
checkpoints and trimming read -- ``replay_point`` -- must be what
the unbounded reference answers, and a read below the released horizon must raise.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.multicast import stream as stream_module
from repro.multicast.merge import StreamCursor
from repro.multicast.stream import TokenLog
from repro.paxos.types import (
    AppValue, Batch, PrepareMsg, SkipToken, SubscribeMsg, UnsubscribeMsg,
)


class ReferenceLog:
    """Every token ever appended, searched by brute force."""

    def __init__(self, position: int, instance: int):
        self.rebase(position, instance)
        self.tokens: list[tuple[int, object]] = []    # (start, token)
        self.ends: list[tuple[int, int]] = []         # (end, instance)

    def rebase(self, position: int, instance: int) -> None:
        self.base = self.frontier = position
        self.start_instance = instance

    def append_batch(self, tokens, instance: int) -> None:
        for token in tokens:
            self.tokens.append((self.frontier, token))
            self.frontier += token.positions()
        self.ends.append((self.frontier, instance))

    def index_covering(self, position: int):
        for index, (start, token) in enumerate(self.tokens):
            if start <= position < start + token.positions():
                return index
        return None

    def covering(self, position: int):
        index = self.index_covering(position)
        return None if index is None else self.tokens[index][1]

    def end_of(self, position: int) -> int:
        start, token = self.tokens[self.index_covering(position)]
        return start + token.positions()

    def value_run(self, position: int) -> list:
        run = []
        for _start, token in self.tokens[self.index_covering(position):]:
            if token.__class__ is not AppValue:
                break
            run.append(token)
        return run

    def replay_point(self, position: int) -> tuple[int, int]:
        below = [(end, instance) for end, instance in self.ends if end <= position]
        if not below:
            return self.start_instance, self.base
        end, instance = below[-1]
        return instance + 1, end


def tokens():
    return st.one_of(
        st.integers(0, 1_000).map(lambda n: AppValue(payload=n)),
        st.integers(1, 12).map(lambda n: SkipToken(count=n)),
        st.sampled_from([
            SubscribeMsg(group="G", stream="S2"),
            UnsubscribeMsg(group="G", stream="S2"),
            PrepareMsg(group="G", stream="S2"),
        ]),
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(tokens(), min_size=1, max_size=8)),
        st.tuples(
            st.just("advance"),
            st.sampled_from(["one", "token", "run", "skip"]),
            st.integers(1, 6),
        ),
        st.tuples(st.just("rebase"), st.integers(0, 20)),
    ),
    max_size=80,
)


def check(cursor: StreamCursor, ref: ReferenceLog, position: int) -> None:
    log = cursor.log
    token = cursor.peek()
    assert cursor.position == position
    assert token is ref.covering(position)
    assert log.frontier == ref.frontier and log.base == ref.base
    if token is not None:
        assert cursor.token_end(token) == ref.end_of(position)
        if token.__class__ is AppValue:
            run = cursor.value_run()
            assert [id(t) for t in run] == [id(t) for t in ref.value_run(position)]
    expected_skip = (
        ref.end_of(position) - position if isinstance(token, SkipToken) else 0
    )
    assert cursor.skip_run() == expected_skip
    assert log.replay_point(position) == ref.replay_point(position)
    # Everything from the horizon on reads as the reference does...
    horizon = log.horizon
    assert ref.base <= horizon <= max(position, ref.base)
    for probe in {horizon, (horizon + ref.frontier) // 2, ref.frontier - 1,
                  ref.frontier}:
        if probe >= horizon:
            assert log.token_covering(probe)[0] is ref.covering(probe)
    # ... and nothing below it reads at all.
    for probe in {ref.base, (ref.base + horizon) // 2, horizon - 1}:
        if ref.base <= probe < horizon:
            for read in (log.token_covering, log.replay_point):
                with pytest.raises(ValueError, match=str(horizon)):
                    read(probe)


@given(
    seed_position=st.integers(0, 30),
    seed_instance=st.integers(0, 5),
    resume_at=st.integers(0, 10),
    release_at=st.sampled_from([1, 3, 64]),
    ops=operations,
)
@settings(max_examples=300, deadline=None)
def test_the_window_reads_like_a_log_that_keeps_everything(
    seed_position, seed_instance, resume_at, release_at, ops
):
    with mock.patch.object(stream_module, "_RELEASE_AT", release_at):
        log = TokenLog(seed_position, seed_instance)
        ref = ReferenceLog(seed_position, seed_instance)
        cursor = StreamCursor("S1", log)
        # A recovering replica resumes past its log's seed.
        position = cursor.position = seed_position + resume_at
        instance = seed_instance
        check(cursor, ref, position)
        for op in ops:
            if op[0] == "append":
                log.append_batch(Batch(tuple(op[1])), instance=instance)
                ref.append_batch(op[1], instance)
                instance += 1
            elif op[0] == "rebase":
                if log.frontier != log.base:
                    continue
                log.rebase(log.base + op[1], instance)
                ref.rebase(ref.base + op[1], instance)
                position = max(position, ref.base)
            else:
                token = cursor.peek()
                if token is None:
                    continue
                _advance, how, steps = op
                if how == "one":
                    position += 1
                elif how == "token":
                    position = cursor.token_end(token)
                elif how == "run" and token.__class__ is AppValue:
                    position += min(steps, len(cursor.value_run()))
                elif how == "skip" and cursor.skip_run():
                    position += min(steps, cursor.skip_run())
                cursor.position = position
            check(cursor, ref, position)
            # The window: the tokens the reader is past are kept only
            # while they are fewer than the compaction threshold or than
            # the tokens it has yet to pass.
            unread = 0
            if position < ref.frontier:
                unread = len(ref.tokens) - ref.index_covering(position)
            passed = log.token_count() - unread
            assert passed < release_at or passed < unread


def test_a_second_reader_is_refused():
    log = TokenLog()
    StreamCursor("S1", log)
    with pytest.raises(RuntimeError, match="one reader"):
        StreamCursor("S1", log)


def test_a_log_that_released_everything_is_still_not_rebased():
    log = TokenLog()
    cursor = StreamCursor("S1", log)
    for index in range(200):
        log.append_batch(Batch((AppValue(payload=index),)), instance=index)
    cursor.position = 200
    assert cursor.peek() is None
    assert log.token_count() == 0 and log.horizon == 200
    assert log.replay_point(200) == (200, 200)
    with pytest.raises(RuntimeError):
        log.rebase(300, 250)
