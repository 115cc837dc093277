"""Edge cases of the elastic merge beyond the happy paths."""

from repro.multicast.elastic import ElasticMerger
from repro.multicast.stream import TokenLog
from repro.paxos.types import (
    AppValue,
    SkipToken,
    SubscribeMsg,
    UnsubscribeMsg,
)


def value(tag):
    return AppValue(payload=tag)


class Harness:
    def __init__(self, group, initial, all_logs):
        self.delivered = []
        self.released = []
        self.merger = ElasticMerger(
            group=group,
            deliver=lambda s, p, vs: self.delivered.extend(
                (v.payload, s) for v in vs
            ),
            stream_provider=lambda name: all_logs[name],
            stream_releaser=self.released.append,
        )
        self.merger.bootstrap({name: all_logs[name] for name in initial})

    @property
    def payloads(self):
        return [v for v, _s in self.delivered]


def test_resubscribe_after_unsubscribe():
    """A group can leave a stream and join it again later."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    r = Harness("G", ["S1", "S2"], logs)

    s1.append(value("a0"))
    s2.append(value("b0"))
    s1.append(UnsubscribeMsg(group="G", stream="S2"))
    s2.append(value("lost"))      # ordered while unsubscribed
    s1.append(value("a1"))
    r.merger.pump()
    assert r.merger.subscriptions == ("S1",)

    # Re-subscribe: a fresh request ordered in both streams.
    sub = SubscribeMsg(group="G", stream="S2")
    s1.append(sub)
    s2.append(sub)
    s1.append(SkipToken(count=10))
    s2.append(SkipToken(count=10))
    r.merger.pump()
    assert r.merger.subscriptions == ("S1", "S2")
    assert "lost" not in r.payloads     # pre-merge-point: discarded
    # A value ordered after the merge point flows again.
    s2.append(value("b1"))
    s1.append(SkipToken(count=5))
    r.merger.pump()
    assert "b1" in r.payloads


def test_unsubscribe_during_alignment_of_another_stream():
    """An unsubscribe consumed while a subscription is aligning."""
    s1, s2, s3 = TokenLog(), TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2, "S3": s3}
    r = Harness("G", ["S1", "S2"], logs)

    sub3 = SubscribeMsg(group="G", stream="S3")
    s1.append(value("a0"))
    s2.append(value("b0"))
    s1.append(sub3)
    # S3's copy is far ahead, forcing a long alignment window.
    s3.append(SkipToken(count=6))
    s3.append(sub3)
    s3.append(value("c0"))
    # During alignment, S1 orders an unsubscribe of S2.
    s2.append(value("b1"))
    s1.append(UnsubscribeMsg(group="G", stream="S2"))
    s1.append(SkipToken(count=20))
    s2.append(SkipToken(count=20))
    r.merger.pump()
    assert r.merger.subscriptions == ("S1", "S3")
    assert "c0" in r.payloads
    assert r.released == ["S2"]


def test_duplicate_prepare_is_harmless():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    provided = []
    r = Harness("G", ["S1"], logs)
    inner = r.merger.stream_provider
    r.merger.stream_provider = lambda name: (provided.append(name), inner(name))[1]
    from repro.paxos.types import PrepareMsg

    s1.append(PrepareMsg(group="G", stream="S2"))
    s1.append(PrepareMsg(group="G", stream="S2"))
    s1.append(value("a"))
    r.merger.pump()
    assert provided == ["S2"]          # second hint was a no-op
    assert r.payloads == ["a"]


def test_subscribe_request_id_seen_in_new_stream_first():
    """The copy in the new stream may be ordered (and recovered) before
    the copy in the subscribed stream is consumed."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    sub = SubscribeMsg(group="G", stream="S2")
    # S2's copy exists in the log before the merger ever looks at it.
    s2.append(value("early"))
    s2.append(sub)
    s2.append(value("b0"))
    r = Harness("G", ["S1"], logs)
    r.merger.pump()
    assert r.merger.subscriptions == ("S1",)
    s1.append(sub)
    s1.append(SkipToken(count=5))
    r.merger.pump()
    assert r.merger.subscriptions == ("S1", "S2")
    assert "early" not in r.payloads
    assert "b0" in r.payloads


def test_positions_reported_to_deliver_are_monotonic_per_stream():
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    positions = {"S1": [], "S2": []}
    merger = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: positions[s].extend(range(p, p + len(vs))),
        stream_provider=lambda name: logs[name],
    )
    merger.bootstrap(logs)
    for i in range(5):
        s1.append(value(f"a{i}"))
        s2.append(SkipToken(count=2))
        s2.append(value(f"b{i}"))
    merger.pump()
    for stream, seen in positions.items():
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


def test_retried_subscribe_deferred_behind_the_first_does_not_double_sigma():
    """Σ is a set.  G's subscribe to S2 is retried under a fresh request
    id while the first is still aligning; the retry is deferred and,
    once the first commits, has nothing left to do.  It used to commit
    too: Σ = (S1, S2, S2), a second merge point, two S2 turns per round
    -- G then ordered 205 before 100 where H, subscribed once over the
    same logs, ordered 100 before 205 (Fig. 2's cycle)."""
    from repro.spec import SafetySpec

    logs = {"S1": TokenLog(), "S2": TokenLog()}
    delivered = {"G": [], "H": []}
    mergers = {}
    for group, out in delivered.items():
        mergers[group] = ElasticMerger(
            group=group,
            deliver=lambda s, p, vs, out=out: out.extend(
                (s, q, v.msg_id) for q, v in enumerate(vs, p)
            ),
            stream_provider=logs.__getitem__,
        )
        mergers[group].bootstrap({"S1": logs["S1"]})
    first, retry = (
        SubscribeMsg(group="G", stream="S2", request_id=request_id)
        for request_id in (1, 2)
    )
    once = SubscribeMsg(group="H", stream="S2", request_id=3)
    script = [
        ("S2", SkipToken(count=5)),
        ("S1", first), ("S1", retry), ("S1", once),
        ("S1", SkipToken(count=10)),
        ("S2", first), ("S2", retry), ("S2", once),
    ]
    for i in range(6):
        script.append(("S1", AppValue(payload=("S1", i), msg_id=100 + i)))
        script.append(("S2", AppValue(payload=("S2", i), msg_id=200 + i)))
    script += [("S1", SkipToken(count=20)), ("S2", SkipToken(count=20))]
    for stream, token in script:
        logs[stream].append(token)
        for merger in mergers.values():
            merger.pump()

    assert mergers["G"].subscriptions == ("S1", "S2")
    assert list(mergers["G"].stats.merge_points) == [1]
    assert delivered["G"] == delivered["H"]
    assert len(delivered["G"]) == 12
    spec = SafetySpec()
    for group, deliveries in delivered.items():
        assert spec.fold(group, group, deliveries) == []
    assert spec.check_acyclic() == []
    # Leaving S2 again finds one cursor to delete, not a second copy
    # of S2 still taking turns (the KeyError that killed the loop).
    after = value("after")
    logs["S1"].append(UnsubscribeMsg(group="G", stream="S2"))
    logs["S1"].append(after)
    logs["S2"].append(SkipToken(count=30))
    mergers["G"].pump()
    assert mergers["G"].subscriptions == ("S1",)
    assert delivered["G"][-1][2] == after.msg_id
