"""Golden digests: bit-identical determinism across the hot path.

The hot-path optimisations (slotted events, pooled calendar
entries, the compiled network route cache, fast message classes,
inlined scheduling) are only admissible if they change *nothing*
observable: the exact delivery order of Figure 2 and the exact
figure-3 result series, down to every float, for a fixed seed.  These
tests pin sha256 digests of both, captured on the pre-optimisation
tree -- any ordering or RNG-draw drift in the simulator shows up here
as a digest mismatch long before it would corrupt a figure.  Every
other evaluation driver (figures 4 and 5, provisioning, the baselines
and ablations) is pinned the same way at a compact configuration, so a
change to how a driver stands its cluster up must leave its result
byte-identical.

The digests are platform-stable: CPython's Mersenne Twister, float
repr, dict ordering and ``heapq`` are all specified behaviour.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.reconfig_baselines import (
    BaselineReconfigConfig,
    run_membership_command_reconfig,
    run_stop_restart_reconfig,
)
from repro.baselines.skip_ablation import SkipAblationConfig, run_skip_ablation
from repro.baselines.static_broadcast import (
    StaticBroadcastConfig,
    run_static_broadcast,
)
from repro.harness.experiments.horizontal import (
    HorizontalConfig,
    run_horizontal,
)
from repro.harness.experiments.provisioning import (
    ProvisioningConfig,
    run_provisioning,
)
from repro.harness.experiments.reconfig import ReconfigConfig, run_reconfig
from repro.harness.experiments.vertical import VerticalConfig, run_vertical
from repro.multicast.elastic import ElasticMerger, MergerState
from repro.multicast.stream import TokenLog
from repro.paxos.types import AppValue, SkipToken, SubscribeMsg

# Captured at commit d17ac55 (pre-optimisation), unchanged since.
FIG2_GOLDEN = "5923c18e45f4c08e8129dca53a056919818309a6756cfaa926bf71c62c16325e"
FIG3_GOLDEN = {
    1: "be5973130a6d4affaf70ac236031b3a991872127ea91a35bc9486bf941837b78",
    2: "be5973130a6d4affaf70ac236031b3a991872127ea91a35bc9486bf941837b78",
}

# Every other evaluation driver at a compact configuration: sha256 of
# the result's repr (config, series and folded figures), captured at
# commit e38fe75, before the drivers moved onto the shared cluster
# builder.
_FIG5 = dict(duration=6.0, prepare_at=2.0, subscribe_at=3.0, n_threads=4,
             value_size=1024, think_time=0.01, lam=1000, delta_t=0.05)
_BASELINE = dict(duration=8.0, reconfigure_at=3.0, n_threads=4,
                 value_size=1024, think_time=0.01, lam=1000, delta_t=0.05)
DRIVER_GOLDEN = {
    "reconfig-prepare": (
        lambda: run_reconfig(ReconfigConfig(**_FIG5)),
        "5de66f1b0c1216b1e327facab4fed5f8f2e96613f741309ce44497d59f9f9896",
    ),
    "reconfig-no-prepare": (
        lambda: run_reconfig(ReconfigConfig(use_prepare=False, **_FIG5)),
        "2cb1e7d2ef9d1fa417d7517e935f1fd5c834b400e93818216101b2abe07e8ed8",
    ),
    "horizontal": (
        lambda: run_horizontal(HorizontalConfig(
            duration=10.0, split_at=3.0, inform_delay=1.0, n_threads=6,
            n_keys=500, replica_cpu_rate=300.0, lam=1000, delta_t=0.05,
        )),
        "db9cdf3015c4c7e941f9ec195da62c5545933cc5d0e2df178350a7cd7eecf276",
    ),
    "provisioning": (
        lambda: run_provisioning(ProvisioningConfig(
            boot_time=2.0, boot_jitter=0.5, lam=1000, delta_t=0.05,
            duration=10.0,
        )),
        "bee6637be700dfb4074a442c47ecc1017cbc7dff564fa4ad5f1946c7662f67d6",
    ),
    "static-broadcast": (
        lambda: run_static_broadcast(StaticBroadcastConfig(
            duration=6.0, add_threads_interval=2.0, n_steps=3,
            threads_per_step=2, value_size=1024, stream_limit=300.0,
            lam=1000, delta_t=0.05,
        )),
        "77e4a2251c25daa00199f087c91ec02080411aa340cb37ce8455e1d35c48ef95",
    ),
    "skip-ablation": (
        lambda: run_skip_ablation(SkipAblationConfig(
            duration=6.0, n_threads=3, idle_stream_load=5.0, lam=1000,
            delta_t=0.05,
        )),
        "63628ffeb4079f0a67885cde50127e8aa27018c18e3e5f005853cc77d58608fa",
    ),
    "stop-restart": (
        lambda: run_stop_restart_reconfig(BaselineReconfigConfig(
            restart_downtime=2.0, **_BASELINE,
        )),
        "4b2cc6a7b5567201ea2ae24b26660d1d07413c26c777e925ddde733066503028",
    ),
    "membership-command": (
        lambda: run_membership_command_reconfig(BaselineReconfigConfig(
            drain_delay=0.3, **_BASELINE,
        )),
        "d6e6bd0493aede5db35a6284549587333b20d7b68c3a5aded17e51cd419bbed0",
    ),
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
    merger.restore(MergerState.initial(initial), logs)
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


@pytest.mark.parametrize("driver", sorted(DRIVER_GOLDEN))
def test_driver_result_golden(driver):
    run, golden = DRIVER_GOLDEN[driver]
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == golden
