"""Ablation of the λ/Δt skip mechanism (§III-B).

Two streams merged by one replica group: S1 carries all the traffic,
S2 is idle.  With skips enabled the idle stream advances at the virtual
rate λ and the merge delivers S1 at full speed; with skips disabled the
round-robin merge starves waiting for S2 -- "messages will be delivered
at the pace of the slowest stream".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..harness.broadcast import BroadcastDeployment
from ..harness.cluster import MulticastCluster
from ..paxos.types import AppValue
from ..runtime.kernel import every

__all__ = ["SkipAblationConfig", "SkipAblationResult", "run_skip_ablation"]


@dataclass
class SkipAblationConfig:
    duration: float = 20.0
    n_threads: int = 10
    value_size: int = 1024
    idle_stream_load: float = 0.0     # ops/s injected into S2 (0 = idle)
    skip_enabled: bool = True
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0005
    seed: int = 8


@dataclass
class SkipAblationResult:
    config: SkipAblationConfig
    delivered_rate: float = 0.0
    completed_ops: int = 0
    merge_blocked: bool = False


def run_skip_ablation(
    config: SkipAblationConfig = SkipAblationConfig(),
) -> SkipAblationResult:
    cluster = MulticastCluster(
        ("S1", "S2"),
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
        skip_enabled=config.skip_enabled,
    )
    deployment = BroadcastDeployment(
        cluster, replicas=1, streams=("S1", "S2"),
        value_size=config.value_size,
        timeout=config.duration + 1,   # no retries: we measure starvation
    )
    client = deployment.client
    client.start_threads("S1", config.n_threads)
    if config.idle_stream_load > 0:
        idle = cluster.directory["S2"]
        every(
            cluster.env, 1.0 / config.idle_stream_load,
            lambda: idle.propose(AppValue(payload=None, size=64)),
            first=0.0,
        )

    cluster.run(until=config.duration)

    result = SkipAblationResult(config=config)
    result.completed_ops = int(client.ops.total)
    if config.duration > 5.0:
        result.delivered_rate = deployment.rate_between(1.0, config.duration)
    result.merge_blocked = result.delivered_rate < 1.0
    return result
