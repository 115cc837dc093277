"""Baseline: static single-stream atomic broadcast.

This is the system Elastic Paxos improves on in §IV-A1: atomic
broadcast over one Paxos stream, whose throughput is capped by the
stream (coordinator CPU / acceptor storage).  Without dynamic
subscriptions the only remedies are over-provisioning up front or a
stop-the-world reconfiguration.

``run_static_broadcast`` drives the same client/replica setup as the
Fig. 3 experiment but never adds streams: throughput stays pinned at
the single-stream ceiling no matter how many client threads arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..harness.broadcast import BroadcastDeployment
from ..harness.cluster import MulticastCluster
from ..runtime.kernel import every

__all__ = ["StaticBroadcastConfig", "StaticBroadcastResult", "run_static_broadcast"]


@dataclass
class StaticBroadcastConfig:
    duration: float = 60.0
    add_threads_interval: float = 15.0   # more load arrives periodically...
    threads_per_step: int = 5            # ...but no stream is ever added
    n_steps: int = 4
    value_size: int = 32 * 1024
    stream_limit: float = 760.0          # same single-stream cap as Fig. 3
    replica_cpu_rate: float = 2820.0
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0008
    seed: int = 6
    measure_interval: float = 1.0


@dataclass
class StaticBroadcastResult:
    config: StaticBroadcastConfig
    throughput: list = field(default_factory=list)
    interval_averages: list = field(default_factory=list)
    latency_p95_ms: Optional[float] = None   # None: no round trip
    scaling_factor: float = 0.0


def run_static_broadcast(
    config: StaticBroadcastConfig = StaticBroadcastConfig(),
) -> StaticBroadcastResult:
    cluster = MulticastCluster(
        ("S1",),
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
        value_rate_limit=config.stream_limit,
    )
    deployment = BroadcastDeployment(
        cluster, cpu_rate=config.replica_cpu_rate, value_size=config.value_size
    )
    client = deployment.client
    client.start_threads("S1", config.threads_per_step)

    remaining = config.n_steps - 1

    def add_threads() -> bool:
        nonlocal remaining
        client.start_threads("S1", config.threads_per_step)
        remaining -= 1
        return remaining > 0

    if remaining > 0:
        every(cluster.env, config.add_threads_interval, add_threads)
    cluster.run(until=config.duration)

    result = StaticBroadcastResult(config=config)
    result.throughput = deployment.throughput(
        config.measure_interval, config.duration
    )
    result.interval_averages, result.scaling_factor = deployment.phases(
        [k * config.add_threads_interval for k in range(config.n_steps)],
        config.duration,
    )
    result.latency_p95_ms = client.latency_p95_ms()
    return result
