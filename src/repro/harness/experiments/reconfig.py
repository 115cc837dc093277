"""Figure 5 -- acceptor reconfiguration under full load.

"We start the experiment with a client VM (60 threads) that sends
32 kbyte values to two replica VMs.  These two replicas subscribe to
the first stream which contains 3 acceptor VMs.  After 40 seconds, we
inform the replicas that we will add a second stream (with a
prepare_msg request).  After 45 seconds we let the replicas subscribe
to the new stream containing 3 different acceptor VMs.  Right after the
subscribe message we submit an unsubscribe message to the original
stream." (§VII-E)

Reported in the paper: reconfiguration of ~550 Mbps of traffic with no
visible overhead (the prepare hint lets replicas recover the new stream
in the background) and a 95th-percentile latency of 2.7 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..broadcast import BroadcastDeployment
from ..cluster import MulticastCluster

__all__ = ["ReconfigConfig", "ReconfigResult", "run_reconfig"]


@dataclass
class ReconfigConfig:
    duration: float = 80.0
    prepare_at: float = 40.0
    subscribe_at: float = 45.0
    n_threads: int = 60
    value_size: int = 32 * 1024
    think_time: float = 0.025          # sets the ~2100 ops/s operating point
    replica_cpu_rate: float = 4000.0
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0004
    acceptors_per_stream: int = 3
    recovery_instance_cost: float = 0.002
    use_prepare: bool = True           # ablation: False shows the stall
    seed: int = 3
    measure_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration:g}")


@dataclass
class ReconfigResult:
    config: ReconfigConfig
    throughput: list = field(default_factory=list)     # (t, ops/s) aggregate
    per_stream: dict = field(default_factory=dict)
    latency_p95_ms: Optional[float] = None   # None: no round trip
    throughput_mbps: float = 0.0
    min_rate_during_switch: float = 0.0
    steady_rate: float = 0.0
    overhead_ratio: float = 0.0        # 1 - min/steady during the switch
    timeouts: int = 0


def run_reconfig(config: ReconfigConfig = ReconfigConfig()) -> ReconfigResult:
    cluster = MulticastCluster(
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
        n_acceptors=config.acceptors_per_stream,
    )
    for name in ("S1", "S2"):
        cluster.add_stream(
            name, recovery_instance_cost=config.recovery_instance_cost
        )
    deployment = BroadcastDeployment(
        cluster, cpu_rate=config.replica_cpu_rate,
        value_size=config.value_size, think_time=config.think_time,
    )
    env, control, client = cluster.env, cluster.control, deployment.client
    group = deployment.group
    client.start_threads("S1", config.n_threads)

    def hint() -> None:
        control.prepare_msg(group, "S2", via_stream="S1")
        env.call_later(config.subscribe_at - config.prepare_at, subscribe)

    def subscribe() -> None:
        control.subscribe_msg(group, "S2", via_stream="S1")
        # Operators point the clients at the new stream, then retire S1.
        env.call_later(0.05, retarget)

    def retarget() -> None:
        client.retarget("S1", "S2")
        env.call_later(
            0.05, control.unsubscribe_msg, group, "S1", "S1"
        )

    if config.use_prepare:
        env.call_at(config.prepare_at, hint)
    else:
        env.call_at(config.subscribe_at, subscribe)
    env.run(until=config.duration)

    result = ReconfigResult(config=config)
    result.throughput = deployment.throughput(
        config.measure_interval, config.duration
    )
    result.per_stream = deployment.per_stream(
        config.measure_interval, config.duration
    )
    result.latency_p95_ms = client.latency_p95_ms()
    result.steady_rate, switch_rates = deployment.switch(
        result.throughput, config.subscribe_at, 5.0
    )
    result.throughput_mbps = (
        result.steady_rate * config.value_size * 8 / 1_000_000
    )
    result.min_rate_during_switch = min(switch_rates) if switch_rates else 0.0
    if result.steady_rate > 0:
        result.overhead_ratio = 1.0 - result.min_rate_during_switch / result.steady_rate
    result.timeouts = client.timeouts
    return result
