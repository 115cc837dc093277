"""EXT-GEO -- wide-area deployment (extension; cf. Benz et al.,
"Stretching Multi-Ring Paxos", ACM SAC 2015 -- the paper's ref [22]).

Two regions, 40 ms apart.  Atomic broadcast across both can be built
two ways:

* **global stream**: one stream whose ring spans both regions -- every
  value pays cross-region hops inside Phase 2;
* **per-region streams** (the Multi-Ring/Elastic way): each region runs
  a local stream with local acceptors; replicas everywhere subscribe to
  both and merge.  Ordering stays local to the writer's region; only
  decision dissemination crosses the ocean once.

The bench measures client-observed latency for a client co-located
with its stream, under both layouts.
"""

from repro.harness.broadcast import BroadcastDeployment
from repro.harness.cluster import MulticastCluster
from repro.harness.report import comparison_table, section
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.sim.network import LinkSpec

INTRA = 0.0005     # same-region one-way latency
INTER = 0.040      # cross-region one-way latency
# The EU side: its streams and acceptors, the client and the first
# replica; everything else runs in the US.
EU_HOSTS = ("eu-", "client", "replica-1")


def region_of(host: str) -> str:
    return "eu" if host.startswith(EU_HOSTS) else "us"


def wire_regions(cluster: MulticastCluster) -> None:
    hosts = cluster.network.hosts()
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            latency = INTRA if region_of(src) == region_of(dst) else INTER
            cluster.network.set_link(src, dst, LinkSpec(latency=latency))


def run_layout(per_region_streams: bool, duration: float = 12.0):
    cluster = MulticastCluster(seed=53, link_latency=INTRA)
    if per_region_streams:
        stream_specs = {
            "eu-S": ("eu-a1", "eu-a2", "eu-a3"),
            "us-S": ("us-a1", "us-a2", "us-a3"),
        }
    else:
        # One global ring alternating regions (worst case for the ring).
        stream_specs = {"eu-S": ("eu-a1", "us-a1", "eu-a2")}

    # Acceptors named by region, not by stream: built on the cluster
    # here, and started once every link is wired.
    for name, acceptors in stream_specs.items():
        config = StreamConfig(
            name=name, acceptors=acceptors, lam=2000, delta_t=0.02
        )
        stream = StreamDeployment(cluster.env, cluster.network, config)
        stream.trimmer = cluster.trimmer
        cluster.directory[name] = stream
    # One replica per region (replica-1 in the EU), both merging every
    # stream.
    deployment = BroadcastDeployment(
        cluster, streams=list(stream_specs), cpu_rate=50_000,
        value_size=1024,
    )
    wire_regions(cluster)
    for stream in cluster.directory.values():
        stream.start()

    # The EU client submits to its local stream.
    client = deployment.client
    client.start_threads("eu-S", 4)
    cluster.run(until=duration)
    return {
        "p50_ms": client.latency.percentile(50) * 1000.0,
        "p95_ms": client.latency.percentile(95) * 1000.0,
        "ops": deployment.rate_between(1.0, duration),
    }


def test_bench_geo_deployment(run_once):
    def both():
        return run_layout(per_region_streams=True), run_layout(
            per_region_streams=False
        )

    multi, single = run_once(both)
    print(section("Extension: WAN deployment, 2 regions 40 ms apart"))
    print(
        comparison_table(
            [
                ("per-region streams: p50 (ms)", "~1 ocean crossing", multi["p50_ms"]),
                ("per-region streams: p95 (ms)", "-", multi["p95_ms"]),
                ("global ring: p50 (ms)", "several crossings", single["p50_ms"]),
                ("global ring: p95 (ms)", "-", single["p95_ms"]),
            ]
        )
    )
    # The EU client's values order locally and cross the ocean once
    # (ack from the local replica), while the global ring pays the
    # inter-region hops inside every Phase 2.
    assert multi["p50_ms"] < single["p50_ms"] * 0.7
    assert single["p50_ms"] > 2 * INTER * 1000 * 0.8   # >= ~2 crossings
    assert multi["ops"] > 0 and single["ops"] > 0