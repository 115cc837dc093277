"""StaticMerger and ElasticMerger must agree when nothing is dynamic.

The elastic merger with a fixed Σ and no control messages is exactly
Multi-Ring Paxos's static merge; hypothesis checks the two produce
identical delivery sequences for arbitrary token content.  Below that,
the merger's two shortcuts -- a round of skips in one step, a decided
run of values in one step -- against one position per turn.
"""

from hypothesis import example, given, settings, strategies as st

from repro.multicast.elastic import ElasticMerger, MergerState
from repro.multicast.merge import StaticMerger
from repro.multicast.stream import TokenLog
from repro.paxos.types import (
    AppValue,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
)


@st.composite
def stream_tokens(draw):
    streams = {}
    for name in ("S1", "S2", "S3")[: draw(st.integers(1, 3))]:
        tokens = []
        for i in range(draw(st.integers(0, 15))):
            if draw(st.booleans()):
                tokens.append(AppValue(payload=(name, i), size=4))
            else:
                tokens.append(SkipToken(count=draw(st.integers(1, 5))))
        streams[name] = tokens
    return streams


def fill(tokens_by_stream):
    logs = {name: TokenLog() for name in tokens_by_stream}
    for name, tokens in tokens_by_stream.items():
        for token in tokens:
            logs[name].append(token)
    return logs


@given(tokens_by_stream=stream_tokens())
@settings(max_examples=200, deadline=None)
def test_static_and_elastic_agree_on_static_input(tokens_by_stream):
    logs_a = fill(tokens_by_stream)
    delivered_static = []
    static = StaticMerger(
        logs_a, lambda v, s, p: delivered_static.append((v.payload, s, p))
    )
    static.pump()

    logs_b = fill(tokens_by_stream)
    delivered_elastic = []
    elastic = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: delivered_elastic.extend(
            (v.payload, s, q) for q, v in enumerate(vs, p)
        ),
        stream_provider=lambda name: logs_b[name],
    )
    elastic.restore(MergerState.initial(logs_b), logs_b)
    elastic.pump()

    assert delivered_static == delivered_elastic
    assert static.positions == elastic.positions()


@given(tokens_by_stream=stream_tokens())
@settings(max_examples=100, deadline=None)
def test_incremental_and_bulk_static_merge_agree(tokens_by_stream):
    """Feeding the static merger token by token equals bulk feeding."""
    logs_bulk = fill(tokens_by_stream)
    bulk = []
    merger_bulk = StaticMerger(logs_bulk, lambda v, s, p: bulk.append((v.payload, s)))
    merger_bulk.pump()

    logs_inc = {name: TokenLog() for name in tokens_by_stream}
    inc = []
    merger_inc = StaticMerger(logs_inc, lambda v, s, p: inc.append((v.payload, s)))
    pending = {name: list(tokens) for name, tokens in tokens_by_stream.items()}
    # Round-robin the feeding in a fixed but different order.
    while any(pending.values()):
        for name in sorted(pending, reverse=True):
            if pending[name]:
                logs_inc[name].append(pending[name].pop(0))
                merger_inc.pump()
    assert inc == bulk


# -- run-length skip consumption == one position per turn ---------------------


class OnePositionMerger(ElasticMerger):
    """The reference: every skip position is its own round-robin turn."""

    def _skip_rounds(self):
        return False


_STREAMS = ("S1", "S2", "S3", "S4")


@st.composite
def merge_scripts(draw):
    """``(initial Σ, [(stream, token), ...])``: tokens in the order they
    are appended to their streams' logs, any stream at any time -- so
    streams run ahead of and fall behind each other (a blocked turn) --
    with long skips, values, and control messages for this group and
    another: prepare, unsubscribe, and subscribe, whose second copy
    lands in the new stream a few appends later."""
    initial = _STREAMS[: draw(st.integers(1, 3))]
    script, twins = [], []          # twins: (due index, stream, token)
    request_ids = iter(range(1000, 2000))
    for index in range(draw(st.integers(0, 60))):
        stream = draw(st.sampled_from(_STREAMS))
        kind = draw(st.sampled_from(
            ["skip"] * 6 + ["value"] * 3
            + ["subscribe", "unsubscribe", "prepare"]
        ))
        if kind == "skip":
            token = SkipToken(count=draw(st.integers(1, 40)))
        elif kind == "value":
            token = AppValue(payload=(stream, index), size=4, msg_id=index)
        else:
            group = draw(st.sampled_from(["G", "G", "G", "H"]))
            target = draw(st.sampled_from(_STREAMS))
            cls = {"subscribe": SubscribeMsg, "unsubscribe": UnsubscribeMsg,
                   "prepare": PrepareMsg}[kind]
            token = cls(group=group, stream=target,
                        request_id=next(request_ids))
            if kind == "subscribe" and target != stream:
                twins.append(
                    (index + draw(st.integers(0, 6)), target, token)
                )
        script.append((stream, token))
        for twin in [t for t in twins if t[0] <= index]:
            twins.remove(twin)
            script.append(twin[1:])
    script.extend(twin[1:] for twin in twins)
    return initial, script


def _merger_state(merger, delivered):
    sigma = merger.subscriptions
    assert len(set(sigma)) == len(sigma), f"Σ is a set, got {sigma}"
    return (
        list(delivered), merger.state(),
        dict(merger.stats.merge_points), merger.stats.discarded,
    )


# A retry of a subscribe (fresh request id) deferred behind the first,
# still-aligning one: once put S2 into Σ twice (a second merge point,
# two turns per round, a KeyError after the next unsubscribe).
_FIRST, _RETRY = (
    SubscribeMsg(group="G", stream="S2", request_id=request_id)
    for request_id in (1, 2)
)


@given(script=merge_scripts())
@example(script=(("S1",), [
    ("S2", SkipToken(count=5)),
    ("S1", _FIRST), ("S1", _RETRY), ("S1", SkipToken(count=10)),
    ("S2", _FIRST), ("S2", _RETRY),
]))
@settings(max_examples=300, deadline=None)
def test_run_length_skips_equal_one_position_per_turn(script):
    initial, appends = script
    runs = []
    for cls in (ElasticMerger, OnePositionMerger):
        logs = {name: TokenLog() for name in _STREAMS}
        delivered = []
        merger = cls(
            group="G",
            deliver=lambda s, p, vs, out=delivered: out.extend(
                (v.payload, s, q) for q, v in enumerate(vs, p)
            ),
            stream_provider=logs.__getitem__,
        )
        merger.restore(MergerState.initial(initial), logs)
        states = []
        for stream, token in appends:
            logs[stream].append(token)
            try:
                # What the replica does per learned batch -- and a full
                # pump, which must find nothing more to do than that.
                merger.notify(stream)
                states.append(_merger_state(merger, delivered))
                merger.pump()
            except RuntimeError as error:   # unsubscribed its last stream
                states.append(str(error))
                break
            states.append(_merger_state(merger, delivered))
        runs.append(states)
    assert runs[0] == runs[1]


# -- run delivery == one value per step -------------------------------------------


class OneValueMerger(ElasticMerger):
    """The reference: a sole stream's decided run of values is delivered
    one value per step, as Algorithm 1's turn takes one position."""

    def _step(self):
        if self._pending is None and len(self.sigma) == 1:
            stream = self.sigma[0]
            cursor = self._cursors[stream]
            token = cursor.peek()
            if isinstance(token, AppValue):
                self._consume(stream, cursor, token, deliver=True)
                return True
        return super()._step()


@st.composite
def batch_scripts(draw):
    """``(initial Σ, [(stream, batch), ...])``: decided batches appended
    to their streams' logs in order, a notify after each (what a replica
    does per learned instance).  Mostly values, so runs form, with
    skips and control tokens for this group and another among them: a
    subscribe can sit in the middle of a run, and its twin lands in the
    new stream a few batches later."""
    initial = _STREAMS[: draw(st.integers(1, 3))]
    script, twins = [], []          # twins: (due index, stream, token)
    request_ids = iter(range(1000, 2000))
    msg_ids = iter(range(1, 100_000))
    for index in range(draw(st.integers(0, 30))):
        stream = draw(st.sampled_from(_STREAMS))
        batch = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(
                ["value"] * 6 + ["skip"] * 2
                + ["subscribe", "unsubscribe", "prepare"]
            ))
            if kind == "value":
                token = AppValue(payload=None, size=4, msg_id=next(msg_ids))
            elif kind == "skip":
                token = SkipToken(count=draw(st.integers(1, 10)))
            else:
                group = draw(st.sampled_from(["G", "G", "G", "H"]))
                target = draw(st.sampled_from(_STREAMS))
                cls = {"subscribe": SubscribeMsg,
                       "unsubscribe": UnsubscribeMsg,
                       "prepare": PrepareMsg}[kind]
                token = cls(group=group, stream=target,
                            request_id=next(request_ids))
                if kind == "subscribe" and target != stream:
                    twins.append(
                        (index + draw(st.integers(0, 4)), target, token)
                    )
            batch.append(token)
        script.append((stream, batch))
        for twin in [t for t in twins if t[0] <= index]:
            twins.remove(twin)
            script.append((twin[1], [twin[2]]))
    script.extend((twin[1], [twin[2]]) for twin in twins)
    return initial, script


def _value(msg_id):
    return AppValue(payload=None, size=4, msg_id=msg_id)


# S1 alone: a run, a subscribe to S2 in the middle of the next run (the
# rest of it delivered one position per turn, during the alignment),
# then runs of one while Σ = {S1, S2}.
_MID_RUN = SubscribeMsg(group="G", stream="S2", request_id=7)


@given(script=batch_scripts())
@example(script=(("S1",), [
    ("S1", [_value(1), _value(2), _value(3)]),
    ("S1", [_value(4), _MID_RUN, _value(5), _value(6)]),
    ("S2", [SkipToken(count=3), _value(7), _MID_RUN, _value(8)]),
    ("S1", [_value(9), SkipToken(count=4), _value(10), _value(11)]),
    ("S2", [_value(12), _value(13)]),
]))
@settings(max_examples=300, deadline=None)
def test_run_delivery_equals_one_value_per_step(script):
    initial, appends = script
    outcomes = []
    for cls in (ElasticMerger, OneValueMerger):
        logs = {name: TokenLog() for name in _STREAMS}
        delivered = []
        merger = cls(
            group="G", deliver=None, stream_provider=logs.__getitem__
        )

        def deliver(stream, first, values, merger=merger, out=delivered):
            # Only a sole stream with no subscription pending delivers
            # more than one value in a step.
            if len(values) > 1:
                assert merger.subscriptions == (stream,)
                assert merger.pending_subscription is None
            out.extend(
                (stream, position, value.msg_id)
                for position, value in enumerate(values, first)
            )

        merger.deliver = deliver
        merger.restore(MergerState.initial(initial), logs)
        error = None
        for stream, batch in appends:
            for token in batch:
                logs[stream].append(token)
            try:
                merger.notify(stream)
            except RuntimeError as exc:     # unsubscribed its last stream
                error = str(exc)
                break
        stats = merger.stats
        outcomes.append((
            delivered, stats.delivered, stats.per_stream_delivered,
            stats.merge_points, merger.positions(), merger.subscriptions,
            error,
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == len(outcomes[0][0])
