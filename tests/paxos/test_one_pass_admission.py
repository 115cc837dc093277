"""A coordinator admits a submission in one pass.

``on_propose`` filters a submitted batch against what it has queued
before, queues the rest with one ``pending`` extend, and traces one
``coord.propose`` run record per run of values.  What a reader of the
trace sees, and what is ordered, must be what the token-by-token
admission produced: the same per-token events, key for key, and the
same tokens in the same order.
"""

from __future__ import annotations

from repro.obs.trace import ListSink, Tracer, installed
from repro.paxos.config import StreamConfig
from repro.paxos.coordinator import CoordinatorActor
from repro.paxos.messages import Propose
from repro.paxos.types import (
    AppValue,
    Batch,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
)
from repro.sim.core import Environment
from repro.sim.network import Network


def _coordinator():
    """A coordinator that queues but never leads: nothing leaves
    ``pending``, so what was admitted can be read off it."""
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    with installed(tracer):
        env = Environment()
    coordinator = CoordinatorActor(
        env, Network(env), StreamConfig(name="s1", acceptors=("s1/a1",))
    )
    return coordinator, tracer, sink


def _propose(coordinator, *tokens):
    token = tokens[0] if len(tokens) == 1 else Batch(tokens)
    coordinator.on_propose(Propose(stream="s1", token=token), "client")


def _values(count, first=100):
    return [
        AppValue(payload=index, size=8, msg_id=first + index)
        for index in range(count)
    ]


def _per_token_events(tokens):
    """What the token-by-token admission traced for ``tokens``: one
    ``coord.propose`` per token, its ids left out when None."""
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    for token in tokens:
        ids = {
            name: getattr(token, name, None)
            for name in ("msg_id", "request_id")
            if getattr(token, name, None) is not None
        }
        tracer.emit(
            "coord.propose", 0.0, coordinator="s1/coordinator", stream="s1",
            type=type(token).__name__, **ids,
        )
    return sink.events


def test_a_mixed_submission_traces_the_per_token_events():
    coordinator, tracer, sink = _coordinator()
    calls = []
    emit = tracer.emit
    tracer.emit = lambda *args, **kwargs: (calls.append(args[0]),
                                           emit(*args, **kwargs))
    values = _values(5)
    subscribe = SubscribeMsg("g1", "s2", request_id=7)
    tokens = (values[0], values[1], subscribe, values[2], SkipToken(3),
              values[3], values[4])
    _propose(coordinator, *tokens)
    assert list(coordinator.pending) == list(tokens)
    assert coordinator.positions_proposed == 9
    # Key for key, seq for seq: the JSONL a reader gets is unchanged.
    assert [list(event.items()) for event in sink.events] == [
        list(event.items()) for event in _per_token_events(tokens)
    ]
    # Three runs of values, one record each, and one event per other token.
    assert len(calls) == 5
    assert tracer.emitted == len(tokens)


def test_a_submission_of_values_is_one_record():
    coordinator, tracer, sink = _coordinator()
    values = _values(200)
    _propose(coordinator, *values)
    assert list(coordinator.pending) == values
    assert coordinator.positions_proposed == 200
    assert tracer.emitted == 200
    assert [event["msg_id"] for event in sink.events] == [
        value.msg_id for value in values
    ]
    assert [event["seq"] for event in sink.events] == list(range(200))


def test_duplicates_are_filtered_token_by_token():
    coordinator, _tracer, _sink = _coordinator()
    values = _values(6)
    prepare = PrepareMsg("g1", "s2", request_id=values[0].msg_id)
    _propose(coordinator, *values[:4])
    # Seen values between fresh ones; a value twice in one batch; a
    # control message whose request_id equals a value's msg_id is not a
    # duplicate of it; a skip never is.
    _propose(coordinator, values[1], values[4], values[2], values[4],
             prepare, SkipToken(2), SkipToken(2))
    _propose(coordinator, values[5], values[5])
    _propose(coordinator, prepare, values[0])
    assert list(coordinator.pending) == (
        values[:4] + [values[4], prepare, SkipToken(2), SkipToken(2),
                      values[5]]
    )
    assert coordinator.positions_proposed == 4 + 1 + 1 + 2 + 2 + 1


def test_a_wholly_duplicate_submission_queues_nothing():
    coordinator, tracer, _sink = _coordinator()
    values = _values(3)
    _propose(coordinator, *values)
    emitted = tracer.emitted
    _propose(coordinator, *values)
    _propose(coordinator, values[1])
    assert list(coordinator.pending) == values
    assert tracer.emitted == emitted


def test_a_proposal_for_another_stream_is_refused_not_raised():
    coordinator, tracer, _sink = _coordinator()
    values = _values(2)
    for stream in ("s2", b"s1"):
        coordinator.on_propose(
            Propose(stream=stream, token=Batch(tuple(values))), "client"
        )
    assert coordinator.refused_proposals == 2
    assert not coordinator.pending and tracer.emitted == 0
    # Refused, not remembered: the same values sent right are ordered.
    _propose(coordinator, *values)
    assert list(coordinator.pending) == values
