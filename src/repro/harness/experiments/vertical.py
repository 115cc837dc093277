"""Figure 3 -- vertical scalability.

"We start the experiment with a client VM (5 threads per stream) that
sends 32 kbyte values to two replica VMs.  We limited the single stream
throughput to 30% not to saturate the replicas at the beginning of the
experiment.  Every 15 seconds replicas subscribe to a new stream and
immediately deliver new commands from the added stream." (§VII-C)

Reported in the paper: interval averages 735 / 1498 / 2391 / 2660 ops/s
(a 3.62x increase with four streams), a visible dip right after each
subscribe message (no ``prepare_msg`` used), and a 95th-percentile
latency of 8.3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..broadcast import BroadcastDeployment
from ..cluster import MulticastCluster

__all__ = ["VerticalConfig", "VerticalResult", "run_vertical"]


@dataclass
class VerticalConfig:
    """Knobs of the Fig. 3 experiment; defaults follow the paper."""

    n_streams: int = 4
    add_interval: float = 15.0          # subscribe every 15 s
    duration: float = 60.0
    threads_per_stream: int = 5
    value_size: int = 32 * 1024
    # "limited the single stream throughput to 30%": per-stream value cap.
    per_stream_limit: float = 760.0
    replica_cpu_rate: float = 2820.0    # saturation => the 3.62x ceiling
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0008
    acceptors_per_stream: int = 3
    # Recovering a stream's backlog is not free (URingPaxos scans its
    # log); this produces the post-subscribe dip the paper highlights.
    recovery_instance_cost: float = 0.002
    use_prepare: bool = False           # the paper deliberately does not
    prepare_lead: float = 5.0           # hint lead time when enabled
    seed: int = 1
    measure_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration:g}")


@dataclass
class VerticalResult:
    config: VerticalConfig
    throughput: list = field(default_factory=list)        # (t, ops/s) aggregate
    per_stream: dict = field(default_factory=dict)        # stream -> [(t, ops/s)]
    interval_averages: list = field(default_factory=list)  # ops/s per phase
    latency_p95_ms: Optional[float] = None   # None: no round trip
    scaling_factor: float = 0.0
    subscribe_times: list = field(default_factory=list)


def run_vertical(config: VerticalConfig = VerticalConfig()) -> VerticalResult:
    """Run the Fig. 3 experiment and fold the measurements."""
    streams = [f"S{i + 1}" for i in range(config.n_streams)]
    cluster = MulticastCluster(
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
        n_acceptors=config.acceptors_per_stream,
        value_rate_limit=config.per_stream_limit,
    )
    for name in streams:
        cluster.add_stream(
            name, recovery_instance_cost=config.recovery_instance_cost
        )
    deployment = BroadcastDeployment(
        cluster, cpu_rate=config.replica_cpu_rate, value_size=config.value_size
    )
    env, control, client = cluster.env, cluster.control, deployment.client
    client.start_threads(streams[0], config.threads_per_stream)

    subscribe_times: list[float] = []

    # Stream k is subscribed at k * add_interval (in both modes); with
    # prepare enabled its hint leads the subscribe by prepare_lead.
    def subscribe(k: int) -> None:
        control.subscribe_msg(
            deployment.group, streams[k], via_stream=streams[0]
        )
        subscribe_times.append(env.now)
        client.start_threads(streams[k], config.threads_per_stream)
        if k + 1 < config.n_streams:
            schedule(k + 1)

    def hint(k: int) -> None:
        control.prepare_msg(
            deployment.group, streams[k], via_stream=streams[0]
        )
        env.call_at(k * config.add_interval, subscribe, k)

    def schedule(k: int) -> None:
        if config.use_prepare:
            hint_at = max(0.0, k * config.add_interval - config.prepare_lead)
            env.call_at(hint_at, hint, k)
        else:
            env.call_later(config.add_interval, subscribe, k)

    if config.n_streams > 1:
        schedule(1)
    env.run(until=config.duration)

    result = VerticalResult(config=config, subscribe_times=subscribe_times)
    result.throughput = deployment.throughput(
        config.measure_interval, config.duration
    )
    result.per_stream = deployment.per_stream(
        config.measure_interval, config.duration
    )
    result.interval_averages, result.scaling_factor = deployment.phases(
        [k * config.add_interval for k in range(config.n_streams)],
        config.duration,
    )
    result.latency_p95_ms = client.latency_p95_ms()
    return result
