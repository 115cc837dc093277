"""Golden digests: bit-identical determinism across the hot path.

The PR-3 hot-path optimisations (slotted events, pooled calendar
entries, the compiled network route cache, fast message classes,
inlined scheduling) are only admissible if they change *nothing*
observable: the exact delivery order of Figure 2 and the exact
figure-3 result series, down to every float, for a fixed seed.  These
tests pin sha256 digests of both, captured on the pre-optimisation
tree -- any ordering or RNG-draw drift in the simulator shows up here
as a digest mismatch long before it would corrupt a figure.

The digests are platform-stable: CPython's Mersenne Twister, float
repr, dict ordering and ``heapq`` are all specified behaviour.
"""

from __future__ import annotations

import hashlib

from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.multicast.elastic import ElasticMerger
from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, SkipToken, SubscribeMsg

# Captured at commit d17ac55 (pre-optimisation), unchanged since.
FIG2_GOLDEN = "5923c18e45f4c08e8129dca53a056919818309a6756cfaa926bf71c62c16325e"
FIG3_GOLDEN = {
    1: "be5973130a6d4affaf70ac236031b3a991872127ea91a35bc9486bf941837b78",
    2: "be5973130a6d4affaf70ac236031b3a991872127ea91a35bc9486bf941837b78",
}


def build_figure2() -> dict[str, TokenLog]:
    """The paper's Figure 2 token logs: G1/G2 cross-subscribe."""
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


def replay(group: str, initial: list[str], logs: dict[str, TokenLog]) -> list:
    delivered: list = []
    merger = ElasticMerger(
        group,
        deliver=lambda s, p, vs: delivered.extend(
            (s, q, v.payload) for q, v in enumerate(vs, p)
        ),
        stream_provider=lambda name: logs[name],
    )
    merger.bootstrap({name: logs[name] for name in initial})
    merger.pump()
    return delivered


def fig2_digest() -> str:
    r1 = replay("G1", ["S1"], build_figure2())
    r2 = replay("G2", ["S2"], build_figure2())
    return hashlib.sha256(repr((r1, r2)).encode()).hexdigest()


def compact_fig3_config(seed: int) -> VerticalConfig:
    """The compact figure-3 configuration whose series is pinned."""
    return VerticalConfig(
        duration=6.0, add_interval=2.0, n_streams=3, threads_per_stream=2,
        value_size=1024, per_stream_limit=300.0, lam=1000, delta_t=0.05,
        seed=seed,
    )


def fig3_digest(seed: int) -> str:
    result = run_vertical(compact_fig3_config(seed))
    blob = repr((
        result.throughput,
        sorted(result.per_stream.items()),
        result.interval_averages,
        result.latency_p95_ms,
        result.subscribe_times,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fig2_delivery_order_golden():
    assert fig2_digest() == FIG2_GOLDEN


def test_fig3_series_golden_seed1():
    assert fig3_digest(1) == FIG3_GOLDEN[1]


def test_fig3_series_golden_seed2():
    assert fig3_digest(2) == FIG3_GOLDEN[2]


def test_fig3_same_seed_bit_identical():
    """Two in-process runs with the same seed produce identical series
    (no hidden global state in the pooled/cached fast paths)."""
    assert fig3_digest(1) == fig3_digest(1)
