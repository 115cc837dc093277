"""Property-based tests of the deterministic merge invariants.

The safety property of atomic multicast: for any token contents and any
arrival schedule, (1) replicas of one group deliver identical
sequences, (2) per-stream order is preserved, (3) any two groups
deliver the messages they both receive in the same relative order
(acyclic delivery), and (4) messages of a subscribed stream after the
merge point are never lost.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.multicast.elastic import ElasticMerger, MergerState
from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, SkipToken, SubscribeMsg

MSG_COUNTER = itertools.count()


def fresh_value(stream_tag):
    return AppValue(payload=(stream_tag, next(MSG_COUNTER)), size=8)


# A scripted scenario: tokens for two streams with one cross-subscribe.
@st.composite
def two_stream_scenario(draw):
    """Token sequences for S1/S2 plus the index where G subscribes."""
    sub = SubscribeMsg(group="G", stream="S2")
    n1 = draw(st.integers(min_value=1, max_value=12))
    n2 = draw(st.integers(min_value=1, max_value=12))
    s1_tokens = []
    for _ in range(n1):
        kind = draw(st.sampled_from(["value", "skip"]))
        s1_tokens.append(
            fresh_value("s1") if kind == "value"
            else SkipToken(count=draw(st.integers(1, 4)))
        )
    sub_at_1 = draw(st.integers(0, len(s1_tokens)))
    s1_tokens.insert(sub_at_1, sub)
    s2_tokens = []
    for _ in range(n2):
        kind = draw(st.sampled_from(["value", "skip"]))
        s2_tokens.append(
            fresh_value("s2") if kind == "value"
            else SkipToken(count=draw(st.integers(1, 4)))
        )
    sub_at_2 = draw(st.integers(0, len(s2_tokens)))
    s2_tokens.insert(sub_at_2, sub)
    # Trailing skips keep both streams advancing so alignment finishes.
    s1_tokens.append(SkipToken(count=200))
    s2_tokens.append(SkipToken(count=200))
    return s1_tokens, s2_tokens


def run_merger(s1_tokens, s2_tokens, schedule):
    """Feed tokens in an arbitrary interleaving; return deliveries."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    delivered = []
    merger = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: delivered.extend((v.payload, s) for v in vs),
        stream_provider=lambda name: logs[name],
    )
    merger.restore(MergerState.initial(["S1"]), {"S1": s1})
    queues = {"S1": list(s1_tokens), "S2": list(s2_tokens)}
    for which in schedule:
        name = "S1" if which else "S2"
        if queues[name]:
            (s1 if name == "S1" else s2).append(queues[name].pop(0))
            merger.pump()
    for name, log in (("S1", s1), ("S2", s2)):
        while queues[name]:
            log.append(queues[name].pop(0))
        merger.pump()
    return delivered, merger


@given(
    scenario=two_stream_scenario(),
    schedule=st.lists(st.booleans(), min_size=0, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_delivery_is_schedule_independent(scenario, schedule):
    """Replicas of one group deliver identically regardless of timing."""
    s1_tokens, s2_tokens = scenario
    baseline, merger_a = run_merger(s1_tokens, s2_tokens, [])
    other, merger_b = run_merger(s1_tokens, s2_tokens, schedule)
    assert baseline == other
    assert merger_a.subscriptions == merger_b.subscriptions


@given(scenario=two_stream_scenario())
@settings(max_examples=150, deadline=None)
def test_per_stream_order_preserved(scenario):
    """Messages of one stream are delivered in stream order."""
    s1_tokens, s2_tokens = scenario
    delivered, _ = run_merger(s1_tokens, s2_tokens, [])
    for stream_name, tokens in (("S1", s1_tokens), ("S2", s2_tokens)):
        stream_order = [
            t.payload for t in tokens if isinstance(t, AppValue)
        ]
        delivered_order = [p for p, s in delivered if s == stream_name]
        # Delivered messages of the stream appear in stream order
        # (a prefix of S2 may be discarded before the merge point).
        indices = [stream_order.index(p) for p in delivered_order]
        assert indices == sorted(indices)


@given(scenario=two_stream_scenario())
@settings(max_examples=150, deadline=None)
def test_no_duplicates_and_s1_complete(scenario):
    """Nothing is duplicated; the always-subscribed stream loses nothing."""
    s1_tokens, s2_tokens = scenario
    delivered, _ = run_merger(s1_tokens, s2_tokens, [])
    payloads = [p for p, _s in delivered]
    assert len(payloads) == len(set(payloads))
    s1_values = [t.payload for t in s1_tokens if isinstance(t, AppValue)]
    assert [p for p, s in delivered if s == "S1"] == s1_values


@given(scenario=two_stream_scenario())
@settings(max_examples=100, deadline=None)
def test_acyclic_across_groups(scenario):
    """A second group subscribed to both streams from the start orders
    the common suffix consistently with the dynamically-subscribing one."""
    s1_tokens, s2_tokens = scenario

    delivered_g, _ = run_merger(s1_tokens, s2_tokens, [])

    # Group H is statically subscribed to both streams.
    s1, s2 = TokenLog(), TokenLog()
    for t in s1_tokens:
        s1.append(t)
    for t in s2_tokens:
        s2.append(t)
    delivered_h = []
    merger_h = ElasticMerger(
        group="H",
        deliver=lambda s, p, vs: delivered_h.extend((v.payload, s) for v in vs),
        stream_provider=lambda name: {"S1": s1, "S2": s2}[name],
    )
    merger_h.restore(
        MergerState.initial(["S1", "S2"]), {"S1": s1, "S2": s2}
    )
    merger_h.pump()

    common = set(p for p, _s in delivered_g) & set(p for p, _s in delivered_h)
    order_g = [p for p, _s in delivered_g if p in common]
    order_h = [p for p, _s in delivered_h if p in common]
    assert order_g == order_h
