"""FIG2 -- acyclic ordering scenario (paper §V-A, Figure 2).

Figure 2 is the paper's correctness illustration: groups G1 and G2
cross-subscribe to each other's stream and every replica must order the
shared suffix identically.  This benchmark replays the exact figure and
then measures the dMerge's raw merge throughput (tokens merged per
second of wall time), since the merge is on every delivery's hot path.
"""

from repro.multicast.elastic import ElasticMerger, MergerState
from repro.multicast.stream import TokenLog
from repro.harness.report import comparison_table, section
from repro.paxos.types import AppValue, SkipToken, SubscribeMsg


def build_figure2():
    s1, s2 = TokenLog(), TokenLog()
    sub_g1 = SubscribeMsg(group="G1", stream="S2")
    sub_g2 = SubscribeMsg(group="G2", stream="S1")
    s1.append(SkipToken(count=9))
    s2.append(SkipToken(count=9))
    for token in (AppValue(payload="m1"), sub_g1, AppValue(payload="m3"),
                  AppValue(payload="m5"), sub_g2, AppValue(payload="m7")):
        s1.append(token)
    for token in (AppValue(payload="m2"), sub_g1, AppValue(payload="m4"),
                  sub_g2, AppValue(payload="m6"), AppValue(payload="m8")):
        s2.append(token)
    return {"S1": s1, "S2": s2}


def replay(group, initial, logs):
    delivered = []
    merger = ElasticMerger(
        group=group,
        deliver=lambda s, p, vs: delivered.extend(v.payload for v in vs),
        stream_provider=lambda name: logs[name],
    )
    merger.restore(MergerState.initial(initial), logs)
    merger.pump()
    return delivered


def merge_throughput_run(n_tokens=200_000):
    """Merge ``n_tokens`` across two streams through one dMerge."""
    s1, s2 = TokenLog(), TokenLog()
    logs = {"S1": s1, "S2": s2}
    delivered = []
    merger = ElasticMerger(
        group="G",
        deliver=lambda s, p, vs: delivered.extend([None] * len(vs)),
        stream_provider=lambda name: logs[name],
    )
    merger.restore(MergerState.initial(logs), logs)
    per_stream = n_tokens // 2
    for i in range(per_stream):
        s1.append(AppValue(payload=i, size=0))
        s2.append(AppValue(payload=i, size=0))
    merger.pump()
    assert len(delivered) == per_stream * 2
    return len(delivered)


def test_bench_fig2_scenario_and_merge_throughput(benchmark):
    r1 = replay("G1", ["S1"], build_figure2())
    r2 = replay("G2", ["S2"], build_figure2())

    print(section("Figure 2: acyclic ordering across cross-subscribing groups"))
    print(
        comparison_table(
            [
                ("G1 delivery order", "m1 m3 m4 m5 m6 m7 m8", " ".join(r1)),
                ("G2 delivery order", "m2 m4 m6 m7 m8", " ".join(r2)),
            ]
        )
    )
    assert r1 == ["m1", "m3", "m4", "m5", "m6", "m7", "m8"]
    assert r2 == ["m2", "m4", "m6", "m7", "m8"]
    common1 = [p for p in r1 if p in set(r2)]
    common2 = [p for p in r2 if p in set(r1)]
    assert common1 == common2, "acyclic order violated"

    merged = benchmark(merge_throughput_run)
    assert merged == 200_000
