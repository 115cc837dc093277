"""Figure 4 -- horizontal scalability (re-partitioning under load).

"We start the experiment with a client VM (100 threads) that sends
1024-byte put commands to random keys.  Two replica VMs apply these
commands to their local in-memory storage ...  Initially only one
partition is present ...  At 30 seconds, one of the replicas subscribes
to a new stream with additional 3 acceptors and informs the whole
system 5 seconds later about the partition change." (§VII-D)

Reported in the paper: under 75% peak load the split takes ~1 s (a
client-timeout-driven gap), per-replica throughput and CPU consumption
halve after the split, so capacity doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...kvstore.partitioning import Partition, PartitionMap
from ...kvstore.repartition import KvCluster
from ...workload.generators import KeyspaceWorkload
from ..cluster import MulticastCluster

__all__ = ["HorizontalConfig", "HorizontalResult", "run_horizontal"]


@dataclass
class HorizontalConfig:
    duration: float = 80.0
    split_at: float = 30.0
    inform_delay: float = 5.0           # map announced 5 s after subscribe
    n_threads: int = 100
    value_size: int = 1024
    n_keys: int = 50_000
    replica_cpu_rate: float = 3000.0    # ops/s one replica sustains (peak)
    load_fraction: float = 0.75         # "75% peak load"
    client_timeout: float = 1.0         # drives the ~1 s gap
    lam: int = 4000
    delta_t: float = 0.100
    link_latency: float = 0.0005
    seed: int = 2
    measure_interval: float = 1.0

    def __post_init__(self) -> None:
        # The "after" rates are read from 5 s past the map change on.
        settled = self.split_at + self.inform_delay + 5.0
        if self.duration <= settled:
            raise ValueError(
                f"duration must be > split_at + inform_delay + 5 = "
                f"{settled:g}, got {self.duration:g}"
            )


@dataclass
class HorizontalResult:
    config: HorizontalConfig
    client_throughput: list = field(default_factory=list)       # (t, ops/s)
    replica_throughput: dict = field(default_factory=dict)      # name -> series
    replica_cpu: dict = field(default_factory=dict)             # name -> series
    map_change_time: float = 0.0
    gap_duration: float = 0.0
    timeouts: int = 0
    before_after: dict = field(default_factory=dict)


def run_horizontal(config: HorizontalConfig = HorizontalConfig()) -> HorizontalResult:
    cluster = MulticastCluster(
        seed=config.seed,
        link_latency=config.link_latency,
        lam=config.lam,
        delta_t=config.delta_t,
    )
    kv = KvCluster(cluster)
    cluster.add_stream("S1")
    cluster.add_stream("S2")

    initial_map = PartitionMap(
        version=0,
        partitions=(Partition(index=0, stream="S1", replicas=("r1", "r2")),),
    )
    r1 = kv.add_replica(
        "r1", "shard-a", ["S1"], initial_map, cpu_rate=config.replica_cpu_rate
    )
    r2 = kv.add_replica(
        "r2", "shard-b", ["S1"], initial_map, cpu_rate=config.replica_cpu_rate
    )
    kv.publish_map(initial_map)

    # Closed-loop load at `load_fraction` of one replica's peak:
    # threads / (latency + think) = fraction * peak.
    offered = config.load_fraction * config.replica_cpu_rate
    think_time = max(0.0, config.n_threads / offered - 0.004)
    workload = KeyspaceWorkload(
        n_keys=config.n_keys, value_size=config.value_size, put_fraction=1.0
    )
    client = kv.add_client(
        "client",
        initial_map,
        workload,
        n_threads=config.n_threads,
        timeout=config.client_timeout,
        think_time=think_time,
    )

    cluster.env.call_at(
        config.split_at,
        lambda: kv.orchestrator.split(
            old_map=initial_map,
            split_index=0,
            moving_group="shard-b",
            moving_replicas=("r2",),
            new_stream="S2",
            settle_delay=config.inform_delay,
        ),
    )
    cluster.run(until=config.duration)

    result = HorizontalResult(config=config)
    result.client_throughput = client.ops.interval_rates(
        config.measure_interval, 0.0, config.duration
    )
    for name, replica in (("r1", r1), ("r2", r2)):
        result.replica_throughput[name] = replica.applied_ops.interval_rates(
            config.measure_interval, 0.0, config.duration
        )
        result.replica_cpu[name] = replica.cpu.probe.interval_utilisation(
            config.measure_interval, 0.0, config.duration
        )
    result.map_change_time = config.split_at + config.inform_delay
    result.timeouts = client.timeouts

    # Gap: the longest run of sub-50% throughput intervals around the
    # map change (the paper reports ~1 s, caused by client timeouts).
    steady = client.ops.rate_between(0.3 * config.split_at, config.split_at)
    gap = 0.0
    for t, rate in result.client_throughput:
        if config.split_at <= t <= config.split_at + 15.0 and rate < 0.5 * steady:
            gap += config.measure_interval
    result.gap_duration = gap

    mc = result.map_change_time
    result.before_after = {
        "client_before": client.ops.rate_between(0.3 * config.split_at, config.split_at),
        "client_after": client.ops.rate_between(mc + 5.0, config.duration),
    }
    for name, replica in (("r1", r1), ("r2", r2)):
        result.before_after[f"{name}_ops_before"] = replica.applied_ops.rate_between(
            0.3 * config.split_at, config.split_at
        )
        result.before_after[f"{name}_ops_after"] = replica.applied_ops.rate_between(
            mc + 5.0, config.duration
        )
        result.before_after[f"{name}_cpu_before"] = replica.cpu.probe.utilisation_between(
            0.3 * config.split_at, config.split_at
        )
        result.before_after[f"{name}_cpu_after"] = replica.cpu.probe.utilisation_between(
            mc + 5.0, config.duration
        )
    return result
