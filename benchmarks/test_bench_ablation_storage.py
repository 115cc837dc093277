"""ABL-DISK -- acceptor stable storage as the stream bottleneck (§IV-A1).

"The performance of atomic broadcast will be typically limited by the
performance of the coordinator (CPU) or the acceptors (disk write
performance)."  The paper's cloud had no real disks (everything ran in
memory); this bench gives the acceptors a synchronous write device and
shows the stream throughput pinned by fsync latency -- the very
bottleneck that dynamically adding streams (Fig. 3) removes.
"""

from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.harness.report import comparison_table, section
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.storage.stable import StableStore


def run_with_disk(write_latency: float, duration: float = 8.0):
    cluster = MulticastCluster(seed=41, link_latency=0.0003)
    env = cluster.env
    # The cluster deploys no acceptor storage: S1 is built on it here.
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        lam=4000,
        delta_t=0.05,
        batch_max_tokens=1,     # isolate the per-write cost
        window=1,               # synchronous acceptors serialize anyway
    )
    stream = StreamDeployment(
        env,
        cluster.network,
        config,
        stable_store_factory=lambda name: StableStore(
            env, write_latency=write_latency, name=name
        ),
    )
    stream.trimmer = cluster.trimmer
    cluster.directory["S1"] = stream
    stream.start()
    deployment = BroadcastDeployment(
        cluster, replicas=1, cpu_rate=100_000, value_size=1024,
        timeout=duration,
    )
    deployment.client.start_threads("S1", 16)
    cluster.run(until=duration)
    return deployment.rate_between(1.0, duration)


def test_bench_ablation_acceptor_storage(run_once):
    def sweep():
        return {
            "memory (paper's setup)": run_with_disk(0.0),
            "fsync 1 ms": run_with_disk(0.001),
            "fsync 5 ms": run_with_disk(0.005),
        }

    rates = run_once(sweep)
    print(section("Ablation: acceptor stable-storage latency caps a stream"))
    print(
        comparison_table(
            [(label, "slower with sync writes", rate) for label, rate in rates.items()]
        )
    )
    memory = rates["memory (paper's setup)"]
    one_ms = rates["fsync 1 ms"]
    five_ms = rates["fsync 5 ms"]
    assert one_ms < memory
    assert five_ms < one_ms
    # With a ring of 3 acceptors each paying a serialized 5 ms write,
    # an instance takes >= 15 ms: well under 100 ops/s.
    assert five_ms < 100
