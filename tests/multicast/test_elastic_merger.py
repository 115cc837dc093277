"""Unit tests for the Elastic Paxos dMerge (Algorithm 1), driven purely.

The centrepiece is the exact Figure 2 scenario of the paper: two
replication groups cross-subscribe to each other's stream and must
deliver the shared suffix in the same order.
"""

import pytest

from repro.multicast.elastic import ElasticMerger
from repro.multicast.stream import TokenLog
from repro.paxos.types import (
    AppValue,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
)


def value(tag):
    return AppValue(payload=tag)


class Harness:
    """One replica's merger over externally writable token logs."""

    def __init__(self, group, initial, all_logs):
        self.delivered = []
        self.released = []
        self.all_logs = all_logs
        self.merger = ElasticMerger(
            group=group,
            deliver=lambda s, p, vs: self.delivered.extend(
                (v.payload, s, q) for q, v in enumerate(vs, p)
            ),
            stream_provider=lambda name: self.all_logs[name],
            stream_releaser=self.released.append,
        )
        self.merger.bootstrap({name: all_logs[name] for name in initial})

    def pump(self):
        self.merger.pump()

    @property
    def payloads(self):
        return [v for v, _s, _p in self.delivered]


def test_figure2_scenario_acyclic_order():
    """Reproduces Fig. 2 of the paper position-for-position."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}

    sub_g1_s2 = SubscribeMsg(group="G1", stream="S2")
    sub_g2_s1 = SubscribeMsg(group="G2", stream="S1")

    # Positions 0-8: history before the figure's window.
    s1.append(SkipToken(count=9))
    s2.append(SkipToken(count=9))
    # Figure 2 contents, positions 9-14.
    for token in (value("m1"), sub_g1_s2, value("m3"), value("m5"),
                  sub_g2_s1, value("m7")):
        s1.append(token)
    for token in (value("m2"), sub_g1_s2, value("m4"), sub_g2_s1,
                  value("m6"), value("m8")):
        s2.append(token)

    r1 = Harness("G1", ["S1"], logs)
    r2 = Harness("G2", ["S2"], logs)
    r1.pump()
    r2.pump()

    assert r1.payloads == ["m1", "m3", "m4", "m5", "m6", "m7", "m8"]
    assert r2.payloads == ["m2", "m4", "m6", "m7", "m8"]
    # Acyclic delivery: messages delivered by both appear in the same order.
    common = [p for p in r1.payloads if p in set(r2.payloads)]
    assert common == [p for p in r2.payloads if p in set(r1.payloads)]
    assert r1.merger.subscriptions == ("S1", "S2")
    assert r2.merger.subscriptions == ("S1", "S2")


def test_merge_point_is_max_of_positions():
    """The merge point aligns at the max of the two request positions."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    sub = SubscribeMsg(group="G", stream="S2")

    # Request at position 1 in S1 but position 3 in S2.
    s1.append(value("a0"))
    s1.append(sub)
    for i in range(5):
        s1.append(value(f"a{i + 1}"))
    s2.append(value("x"))
    s2.append(value("y"))
    s2.append(value("z"))
    s2.append(sub)
    s2.append(value("b0"))
    s2.append(value("b1"))

    r = Harness("G", ["S1"], logs)
    r.pump()
    # merge_ptr = max(2, 4) = 4: a1, a2 delivered solo from S1;
    # x, y, z discarded; merged from position 4: a3, b0, a4, b1, a5.
    assert r.payloads == ["a0", "a1", "a2", "a3", "b0", "a4", "b1", "a5"]
    assert r.merger.stats.discarded == 3


def test_subscription_blocks_until_request_found_in_new_stream():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    sub = SubscribeMsg(group="G", stream="S2")

    s1.append(sub)
    s1.append(value("a"))
    r = Harness("G", ["S1"], logs)
    r.pump()
    # S2 has not yet ordered the request: nothing may be delivered.
    assert r.payloads == []
    assert r.merger.pending_subscription == "S2"
    s2.append(sub)
    s2.append(value("b"))
    r.pump()
    assert r.payloads == ["a", "b"]
    assert r.merger.pending_subscription is None


def test_other_groups_control_messages_are_ignored():
    s1 = TokenLog()
    logs = {"S1": s1}
    s1.append(value("a"))
    s1.append(SubscribeMsg(group="OTHER", stream="S9"))
    s1.append(UnsubscribeMsg(group="OTHER", stream="S1"))
    s1.append(value("b"))
    r = Harness("G", ["S1"], logs)
    r.pump()
    assert r.payloads == ["a", "b"]
    assert r.merger.subscriptions == ("S1",)


def test_unsubscribe_removes_stream_at_the_order_point():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    r = Harness("G", ["S1", "S2"], logs)

    s1.append(value("a0"))
    s2.append(value("b0"))
    s1.append(UnsubscribeMsg(group="G", stream="S2"))
    s2.append(value("b1"))
    s1.append(value("a1"))
    s1.append(value("a2"))
    r.pump()
    # b1 is at S2 position 1, but the unsubscribe (S1 position 1) is
    # consumed at round 2 before S2's turn returns: b1 never delivered.
    assert r.payloads == ["a0", "b0", "a1", "a2"]
    assert r.merger.subscriptions == ("S1",)
    assert r.released == ["S2"]


def test_unsubscribe_ordered_in_the_removed_stream_itself():
    """Fig. 5 submits the unsubscribe to the original stream."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    r = Harness("G", ["S1", "S2"], logs)
    s1.append(value("a0"))
    s2.append(value("b0"))
    s1.append(UnsubscribeMsg(group="G", stream="S1"))
    s2.append(value("b1"))
    s2.append(value("b2"))
    s1.append(value("never"))
    r.pump()
    assert r.payloads == ["a0", "b0", "b1", "b2"]
    assert r.merger.subscriptions == ("S2",)


def test_unsubscribing_last_stream_is_an_error():
    s1 = TokenLog()
    logs = {"S1": s1}
    r = Harness("G", ["S1"], logs)
    s1.append(UnsubscribeMsg(group="G", stream="S1"))
    with pytest.raises(RuntimeError, match="last stream"):
        r.pump()


def test_duplicate_subscribe_request_is_idempotent():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    sub = SubscribeMsg(group="G", stream="S2")
    s1.append(sub)
    s2.append(sub)
    s2.append(value("b0"))
    s1.append(value("a0"))
    r = Harness("G", ["S1"], logs)
    r.pump()
    assert r.merger.subscriptions == ("S1", "S2")
    # A second subscribe for an already-subscribed stream is a no-op.
    dup = SubscribeMsg(group="G", stream="S2")
    s1.append(dup)
    s1.append(value("a1"))
    s2.append(value("b1"))
    r.pump()
    assert r.merger.subscriptions == ("S1", "S2")
    # Round-robin from the commit point: S1@1=a0, S2@1=b0, S1@2=dup
    # (consumed silently), S2@2=b1, S1@3=a1.
    assert r.payloads == ["a0", "b0", "b1", "a1"]


def test_prepare_msg_attaches_stream_without_subscribing():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    provided = []

    r = Harness("G", ["S1"], logs)
    original_provider = r.merger.stream_provider
    r.merger.stream_provider = lambda name: (provided.append(name), original_provider(name))[1]

    s1.append(PrepareMsg(group="G", stream="S2"))
    s1.append(value("a"))
    r.pump()
    assert provided == ["S2"]
    assert r.merger.subscriptions == ("S1",)
    assert r.payloads == ["a"]


def test_delivery_independent_of_arrival_interleaving():
    """Two replicas of the same group must deliver identically no matter
    how token arrival interleaves across streams (determinism)."""
    sub = SubscribeMsg(group="G", stream="S2")
    s1_tokens = [value("a0"), sub, value("a1"), value("a2"), value("a3")]
    s2_tokens = [value("x"), sub, value("b1"), value("b2"), value("b3")]

    def run(schedule):
        s1, s2 = TokenLog(), TokenLog()
        logs = {"S1": s1, "S2": s2}
        r = Harness("G", ["S1"], logs)
        i1 = i2 = 0
        for which in schedule:
            if which == 1 and i1 < len(s1_tokens):
                s1.append(s1_tokens[i1])
                i1 += 1
            elif which == 2 and i2 < len(s2_tokens):
                s2.append(s2_tokens[i2])
                i2 += 1
            r.pump()
        # Flush any stragglers.
        while i1 < len(s1_tokens):
            s1.append(s1_tokens[i1]); i1 += 1
        while i2 < len(s2_tokens):
            s2.append(s2_tokens[i2]); i2 += 1
        r.pump()
        return r.payloads

    schedules = [
        [1] * 5 + [2] * 5,
        [2] * 5 + [1] * 5,
        [1, 2] * 5,
        [2, 1] * 5,
        [1, 1, 2, 2, 1, 2, 1, 2, 2, 1],
    ]
    results = [run(s) for s in schedules]
    assert all(r == results[0] for r in results), results


def test_deferred_subscription_handled_after_commit():
    s1, s2, s3 = TokenLog(), TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2, "S3": s3}
    sub2 = SubscribeMsg(group="G", stream="S2")
    sub3 = SubscribeMsg(group="G", stream="S3")

    s1.append(sub2)
    s1.append(sub3)   # arrives while the S2 subscription is in flight
    s2.append(sub2)
    s3.append(sub3)
    s1.append(value("a"))
    s2.append(value("b"))
    s3.append(value("c"))   # precedes S3's merge point: will be discarded
    r = Harness("G", ["S1"], logs)
    r.pump()
    # Streams must keep advancing for the second alignment to complete
    # (a live system tops them up with skips).
    for log in (s1, s2, s3):
        log.append(SkipToken(count=10))
    r.pump()
    assert r.merger.subscriptions == ("S1", "S2", "S3")
    assert set(r.payloads) == {"a", "b"}
    # Values ordered after the merge point do get delivered.
    s3.append(value("c2"))
    for log in (s1, s2):
        log.append(SkipToken(count=5))
    r.pump()
    assert "c2" in r.payloads


def test_skip_tokens_keep_round_robin_fair():
    """An idle stream advancing on skips does not throttle a loaded one."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    r = Harness("G", ["S1", "S2"], logs)
    for i in range(100):
        s1.append(value(f"a{i}"))
    s2.append(SkipToken(count=100))
    r.pump()
    assert len(r.payloads) == 100


def test_stats_track_subscriptions():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    sub = SubscribeMsg(group="G", stream="S2")
    s1.append(sub)
    s2.append(value("pre"))
    s2.append(sub)
    s1.append(SkipToken(count=5))   # lets S1 reach the merge point
    r = Harness("G", ["S1"], logs)
    r.pump()
    assert r.merger.stats.subscriptions == 1
    assert r.merger.stats.discarded == 1
    s1.append(UnsubscribeMsg(group="G", stream="S2"))
    s2.append(value("x"))
    s2.append(SkipToken(count=10))   # S2 keeps pace until the unsubscribe
    r.pump()
    assert r.merger.stats.unsubscriptions == 1


class _FakeTracer:
    def __init__(self):
        self.events = []

    def emit(self, kind, ts, **fields):
        self.events.append({"kind": kind, "ts": ts, **fields})


class _FakeEnv:
    """Just enough env for the merger's trace/metrics gates: a tracer,
    no metrics, and a settable clock (``env.now`` mirrors ``now()``)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics = None
        self.now = 0.0


def test_head_of_line_episode_traced_with_blocking_stream():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    tracer = _FakeTracer()
    env = _FakeEnv(tracer)
    merger = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: None,
        stream_provider=lambda name: logs[name],
        now=lambda: env.now,
        owner="G/r1",
        env=env,
    )
    merger.bootstrap(logs)
    s1.append(value("a"))
    s2.append(value("b"))
    merger.pump()               # delivers a, b; turn back on S1: blocked
    env.now = 1.0
    merger.pump()               # still blocked on S1 -- no episode yet
    hol = [e for e in tracer.events if e["kind"] == "merge.head_of_line"]
    assert hol == []
    env.now = 2.5
    s1.append(value("c"))
    merger.pump()               # unblocked: episode emitted
    (episode,) = [
        e for e in tracer.events if e["kind"] == "merge.head_of_line"
    ]
    assert episode["stream"] == "S1"
    assert episode["replica"] == "G/r1"
    assert episode["group"] == "G"
    # Blocked since the first empty peek at t=0 (the pump that
    # delivered a,b ended with the turn stuck on S1), freed at t=2.5.
    assert episode["waited"] == pytest.approx(2.5)


def test_no_head_of_line_tracking_without_env():
    s1 = TokenLog()
    merger = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: None,
        stream_provider=lambda name: s1,
    )
    merger.bootstrap({"S1": s1})
    merger.pump()               # blocked immediately
    assert merger._blocked_since is None   # gate off: nothing tracked


def test_notify_pumps_only_for_the_stream_the_merge_is_blocked_on():
    """News from a stream whose turn it is not cannot move the merge:
    notify() leaves the cursors alone and does not even pump.  A pending
    subscription scans a stream outside sigma, so then every notify pumps."""
    s1, s2, s3 = TokenLog(), TokenLog(), TokenLog()
    h = Harness("G", ["S1", "S2"], {"S1": s1, "S2": s2, "S3": s3})
    pumps = []
    pump = h.merger.pump
    h.merger.pump = lambda: (pumps.append(h.merger.next_stream), pump())

    s1.append(value("a0"))
    h.merger.notify("S1")
    assert h.payloads == ["a0"] and h.merger.next_stream == "S2"
    # Blocked on S2: a token on S1 steps nothing.
    s1.append(value("a1"))
    before = h.merger.positions()
    h.merger.notify("S1")
    assert pumps == ["S1"]
    assert h.merger.positions() == before
    assert h.payloads == ["a0"]
    # The token S2 was waiting for releases both.
    s2.append(value("b0"))
    h.merger.notify("S2")
    assert pumps == ["S1", "S2"]
    assert h.payloads == ["a0", "b0", "a1"]

    # Subscribing: the request is consumed from S1, the scan then waits
    # on S3 -- which is not in sigma -- so its news must pump.
    sub = SubscribeMsg(group="G", stream="S3")
    s1.append(sub)
    s2.append(SkipToken(count=3))
    h.merger.notify("S2")
    assert h.merger.pending_subscription == "S3"
    s3.append(SkipToken(count=2))
    s3.append(sub)
    h.merger.notify("S3")
    assert h.merger.pending_subscription is None
    assert h.merger.subscriptions == ("S1", "S2", "S3")
