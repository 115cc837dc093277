"""End-to-end: a traced cluster run reconstructs every delivery's path."""

from repro.harness.cluster import MulticastCluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_event
from repro.obs.spans import LifecycleIndex
from repro.obs.trace import ListSink, Tracer, installed


def test_traced_cluster_run_yields_complete_lifecycles():
    sink = ListSink()
    index = LifecycleIndex()
    tracer = Tracer(sinks=[sink, index])
    registry = MetricsRegistry()
    with installed(tracer, metrics=registry):
        cluster = MulticastCluster(streams=("S1",), seed=3)
        cluster.add_replica("G1/r1", "G1", ["S1"])
        cluster.add_replica("G1/r2", "G1", ["S1"])
        for i in range(20):
            cluster.env.call_at(
                0.05 + 0.01 * i, cluster.client.multicast, "S1", ("p", i)
            )
        cluster.run(until=2.0)

    # Every emitted event matches the schema.
    for event in sink.events:
        validate_event(event)

    # Every delivered message's submit -> deliver path is reconstructed,
    # at both replicas.
    complete, delivered = index.coverage()
    assert delivered == 20
    assert complete == delivered
    for lifecycle in index.delivered_messages():
        assert set(lifecycle.delivered_at) == {"G1/r1", "G1/r2"}
        stages = lifecycle.stage_latencies()
        assert stages["submit->deliver"] > 0.0

    # The metrics registry bound itself to the cluster environment and
    # collected per-replica delivery counters along the way.
    assert registry.env is cluster.env
    assert registry.counter("G1/r1", "delivered").total == 20
    assert registry.counter("G1/r2", "delivered").total == 20
    assert registry.gauge("G1/r1", "merge_lag").value is not None


def test_untraced_cluster_has_no_tracer_overhead_hooks():
    cluster = MulticastCluster(streams=("S1",), seed=3)
    assert cluster.env.tracer is None
    assert cluster.env.metrics is None
    cluster.add_replica("G1/r1", "G1", ["S1"])
    cluster.env.call_at(0.05, cluster.client.multicast, "S1", ("p", 0))
    cluster.run(until=1.0)
    assert len(cluster.delivered["G1/r1"]) == 1


def test_repro_trace_jsonl_of_a_pinned_seed_is_byte_identical(tmp_path):
    # The trace file is an interface (audit, merge, stats read it):
    # how events travel inside the tracer -- dicts, or fixed-shape
    # records materialised for the JSONL sink -- must not show in it.
    # Pinned at the commit before records existed.  A fresh process:
    # msg_ids come from a process-global counter.
    import hashlib
    import os
    import subprocess
    import sys

    import repro

    out = tmp_path / "t.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-m", "repro", "trace", "fig3", "--duration", "1",
         "--seed", "11", "--out", str(out)],
        check=True, env=env, capture_output=True, timeout=120,
    )
    data = out.read_bytes()
    assert data.count(b"\n") == 8485
    assert hashlib.sha256(data).hexdigest() == (
        "f183309bac95e50e20fd616ba7c1b33e02ffad4c6e2160d7c1203a1f3623e140"
    )
