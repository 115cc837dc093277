"""The merger's state is all a replica needs to resume (§VIII-B).

A scripted run appends decided batches -- values, skips, and
subscribe, prepare and unsubscribe for this group and another -- to
their streams, a ``notify`` after each, as a replica's learners do.
Cut ``state()`` after any step, build a new merger on new token logs
seeded at the state's replay points and fed every batch from there on,
``restore`` it and go on: the run delivers exactly what it delivers
with no crash, and ends in the same state.  It must also do so when
the cut is made after *every* step, so that a state cut from a
restored merger -- whose logs start at a replay point, not at instance
0 -- is itself restored.

Each cut also checks what a replay point is: the boundary ``(instance,
position)`` of the one decided batch the cursor has not wholly
consumed, both halves naming the same boundary.
"""

from hypothesis import example, given, settings

from repro.multicast.elastic import ElasticMerger, MergerState
from repro.multicast.stream import TokenLog
from repro.paxos.types import (
    AppValue,
    Batch,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
)

from .test_merger_equivalence import _STREAMS, batch_scripts


class _Incarnation:
    """One merger, and the token logs its learners feed from
    ``decided`` (stream -> batches, list index = Paxos instance)."""

    def __init__(self, decided, delivered):
        self.decided = decided
        self.logs = {}
        self.merger = ElasticMerger(
            group="G",
            deliver=lambda s, p, vs: delivered.extend(
                (s, q, v.msg_id) for q, v in enumerate(vs, p)
            ),
            stream_provider=lambda stream: self.seed(stream, 0, 0),
            stream_releaser=self.logs.pop,
        )

    def seed(self, stream, instance, base):
        """A learner recovering ``stream`` from ``instance``, whose
        tokens start at position ``base``."""
        log = self.logs[stream] = TokenLog(
            start_position=base, start_instance=instance
        )
        for index, batch in enumerate(self.decided[stream]):
            if index >= instance:
                log.append_batch(batch, instance=index)
        return log

    def restore(self, state):
        logs = {
            stream: self.seed(stream, instance, base)
            for stream, (instance, base) in state.replay_points
        }
        self.merger.restore(state, logs)
        self.merger.pump()

    def learned(self, stream):
        """``stream`` decided its latest batch."""
        log = self.logs.get(stream)
        if log is not None:
            instance = len(self.decided[stream]) - 1
            log.append_batch(self.decided[stream][instance], instance=instance)
        self.merger.notify(stream)


def _check_replay_points(state, decided):
    positions = dict(state.positions)
    for stream, (instance, base) in state.replay_points:
        starts = [0]
        for batch in decided[stream]:
            starts.append(starts[-1] + sum(t.positions() for t in batch.tokens))
        assert starts[instance] == base, (stream, instance, base)
        # The batch at the replay point is not wholly consumed (or is
        # not decided yet): no whole batch lies between it and the
        # cursor.
        assert base <= positions[stream]
        assert instance == len(decided[stream]) or (
            starts[instance + 1] > positions[stream]
        ), (stream, instance, positions[stream])


def _play(initial, appends, cuts):
    """Deliveries and final state (or the error that ended the run),
    moving to a new merger restored from ``state()`` after every step
    in ``cuts``."""
    decided = {stream: [] for stream in _STREAMS}
    delivered = []
    run = _Incarnation(decided, delivered)
    run.restore(MergerState.initial(initial))
    for step, (stream, tokens) in enumerate(appends):
        decided[stream].append(Batch(tokens=tuple(tokens)))
        try:
            run.learned(stream)
        except RuntimeError as error:   # unsubscribed its last stream
            return delivered, str(error)
        if step in cuts:
            state = run.merger.state()
            _check_replay_points(state, decided)
            run = _Incarnation(decided, delivered)
            run.restore(state)
    return delivered, run.merger.state()


def _value(msg_id):
    return AppValue(payload=None, size=4, msg_id=msg_id)


_SUB_S2 = SubscribeMsg(group="G", stream="S2", request_id=1)
_SUB_S3 = SubscribeMsg(group="G", stream="S3", request_id=2)


@given(script=batch_scripts())
# Σ = {S1, S2}, a cut mid-round: S1 has had its turn, S2's is next.
@example(script=(("S1", "S2"), [
    ("S1", [_value(1), _value(2)]),
    ("S2", [_value(3)]),
    ("S2", [_value(4), SkipToken(count=3)]),
]))
# A cut while S2 is scanned, while S1 aligns to the merge point, and
# while a second subscribe waits deferred behind the first.
@example(script=(("S1",), [
    ("S1", [_value(1), _SUB_S2, _value(2), _SUB_S3]),
    ("S2", [SkipToken(count=20), _SUB_S2]),
    ("S3", [SkipToken(count=2), _SUB_S3, _value(3)]),
    ("S1", [_value(4), SkipToken(count=30), _value(5)]),
    ("S2", [_value(6), _value(7)]),
    ("S1", [_value(8)]),
]))
# A prepared stream, subscribed later.
@example(script=(("S1",), [
    ("S1", [PrepareMsg(group="G", stream="S2", request_id=3), _value(1)]),
    ("S2", [_value(2), SkipToken(count=4)]),
    ("S1", [_SUB_S2, _value(3)]),
    ("S2", [_SUB_S2, _value(4)]),
    ("S1", [_value(5)]),
]))
# The same subscribe decided twice in its carrier, the second copy after
# the stream left Σ again: a request is handled once.
@example(script=(("S1",), [
    ("S1", [_SUB_S2, _value(1)]),
    ("S2", [_value(2), _SUB_S2, _value(3)]),
    ("S1", [UnsubscribeMsg(group="G", stream="S2", request_id=4)]),
    ("S1", [_SUB_S2, _value(5)]),
    ("S2", [_value(6)]),
    ("S1", [_value(7)]),
]))
@settings(max_examples=200, deadline=None)
def test_restoring_the_state_after_any_step_changes_nothing(script):
    initial, appends = script
    reference = _play(initial, appends, cuts=())
    for step in range(len(appends)):
        assert _play(initial, appends, cuts={step}) == reference, step
    assert _play(initial, appends, cuts=range(len(appends))) == reference
