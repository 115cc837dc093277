"""Baseline acceptor-reconfiguration strategies (§VIII-C, §IV-A3).

Two alternatives the paper contrasts Elastic Paxos against:

* **stop-and-restart** -- "existing solutions consist in stopping
  processes in the current configuration, redefining the set of
  processes in the new configuration, and re-starting the processes":
  the service is down while replicas checkpoint, the new deployment
  boots and replicas recover;
* **membership-as-command** (Lamport) -- the acceptor set is part of
  the state and changed by an ordered command.  "Such a mechanism
  prevents multiple consensus instances from executing concurrently,
  which limits performance": the stream runs with a pipeline window of
  1 and must drain + re-run Phase 1 on the new acceptors at the switch.
  Batching partially masks the serialized window's throughput cost at
  moderate load, but the latency penalty and the deep stall at the
  switch remain.

Both are measured under the Fig. 5 load so the ablation benchmark can
put the three strategies side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..harness.broadcast import BroadcastDeployment
from ..harness.cluster import MulticastCluster
from ..multicast.stream import StreamDeployment
from ..paxos.acceptor import AcceptorActor
from ..paxos.config import StreamConfig

__all__ = [
    "BaselineReconfigConfig",
    "BaselineReconfigResult",
    "run_stop_restart_reconfig",
    "run_membership_command_reconfig",
]


@dataclass
class BaselineReconfigConfig:
    duration: float = 80.0
    reconfigure_at: float = 45.0
    n_threads: int = 60
    value_size: int = 32 * 1024
    think_time: float = 0.025
    replica_cpu_rate: float = 4000.0
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0004
    # Stop-and-restart: checkpoint + boot + recover window.
    restart_downtime: float = 12.0
    # Membership-as-command: drain + Phase 1 on the new acceptor set.
    drain_delay: float = 0.8
    seed: int = 7
    measure_interval: float = 1.0


@dataclass
class BaselineReconfigResult:
    config: BaselineReconfigConfig
    strategy: str = ""
    throughput: list = field(default_factory=list)
    steady_rate: float = 0.0
    min_rate_during_switch: float = 0.0
    downtime_seconds: float = 0.0        # intervals with ~zero delivery
    latency_p95_ms: Optional[float] = None   # None: no round trip


def _build_world(config: BaselineReconfigConfig, window: int = 16):
    """Stream S1, the broadcast deployment and the Fig. 5 load on S1."""
    cluster = MulticastCluster(
        ("S1",), seed=config.seed, link_latency=config.link_latency,
        lam=config.lam, delta_t=config.delta_t, window=window,
    )
    deployment = BroadcastDeployment(
        cluster, cpu_rate=config.replica_cpu_rate,
        value_size=config.value_size, think_time=config.think_time,
    )
    deployment.client.start_threads("S1", config.n_threads)
    return cluster, deployment


def _measure(result, deployment, config):
    result.throughput = deployment.throughput(
        config.measure_interval, config.duration
    )
    result.steady_rate, switch_rates = deployment.switch(
        result.throughput, config.reconfigure_at, 20.0
    )
    result.min_rate_during_switch = min(switch_rates) if switch_rates else 0.0
    result.downtime_seconds = sum(
        config.measure_interval
        for rate in switch_rates
        if rate < 0.05 * max(result.steady_rate, 1.0)
    )
    result.latency_p95_ms = deployment.client.latency_p95_ms()
    return result


def run_stop_restart_reconfig(
    config: BaselineReconfigConfig = BaselineReconfigConfig(),
) -> BaselineReconfigResult:
    """Reconfigure by halting the whole stack and restarting it."""
    cluster, deployment = _build_world(config)
    env, stream = cluster.env, cluster.directory["S1"]

    def stop_the_world() -> None:
        # Stop the world: clients, replicas, the stream itself.
        deployment.stop()
        stream.stop()
        env.call_later(config.restart_downtime, restart)

    def restart() -> None:
        # New acceptor set under the same stream name (fresh actors).
        new_config = StreamConfig(
            name="S1",
            acceptors=("S1/b1", "S1/b2", "S1/b3"),
            lam=config.lam,
            delta_t=config.delta_t,
        )
        new_stream = StreamDeployment(env, cluster.network, new_config)
        cluster.directory["S1"] = new_stream
        new_stream.start()
        deployment.restart()
        deployment.client.start_threads("S1", config.n_threads)

    env.call_at(config.reconfigure_at, stop_the_world)
    env.run(until=config.duration)
    result = BaselineReconfigResult(config=config, strategy="stop-restart")
    return _measure(result, deployment, config)


def run_membership_command_reconfig(
    config: BaselineReconfigConfig = BaselineReconfigConfig(),
) -> BaselineReconfigResult:
    """Reconfigure through an ordered membership command (Lamport).

    The stream runs with window=1 (membership may change at any
    instance, so instances cannot be decided concurrently) and the
    switch drains the pipeline and re-runs Phase 1 on the new acceptors.
    """
    cluster, deployment = _build_world(config, window=1)
    env, stream = cluster.env, cluster.directory["S1"]
    coordinator = stream.coordinator

    def order_membership_command() -> None:
        # The membership command is ordered like any value; once decided
        # the pipeline drains before any instance may use the new set.
        coordinator.leading = False
        env.call_later(config.drain_delay, switch)

    def switch() -> None:
        # Fresh acceptors take over; the coordinator re-runs Phase 1.
        new_names = ("S1/b1", "S1/b2", "S1/b3")
        new_acceptors = [
            AcceptorActor(env, cluster.network, name, stream="S1", ring=new_names)
            for name in new_names
        ]
        for acceptor in new_acceptors:
            acceptor.start()
        coordinator.config.acceptors = new_names
        stream.acceptors = new_acceptors
        stream._sync_decision_targets()
        coordinator.take_over()

    env.call_at(config.reconfigure_at, order_membership_command)
    env.run(until=config.duration)
    result = BaselineReconfigResult(config=config, strategy="membership-command")
    return _measure(result, deployment, config)
