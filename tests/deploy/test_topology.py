"""Topology spec: validation, placement, serialization, configs."""

from __future__ import annotations

import json

import pytest

from repro.deploy.topology import (
    NodeSpec,
    TopologySpec,
    WorkloadSpec,
    agent_host,
    build_topology,
    load_address_file,
)


def test_default_build_places_round_robin():
    spec = build_topology()
    layout = {n.name: (n.streams, n.replicas, n.client) for n in spec.nodes}
    assert layout == {
        "n1": (("s1",), ("g1/r1",), True),
        "n2": (("s2",), ("g1/r2",), False),
        "n3": ((), ("g1/r3",), False),
    }
    assert spec.owner_of("s2") == "n2"
    assert spec.client_node() == "n1"
    assert spec.all_replicas() == ("g1/r1", "g1/r2", "g1/r3")
    assert spec.groups == {"g1": ("s1",)}
    assert spec.group_of("g1/r3") == "g1"


def test_dedicated_stream_nodes_layout():
    spec = build_topology(dedicate_stream_nodes=True)
    # Replica/client nodes first, then one node per stream: the
    # rolling-replace shape where a stream's node can be power-cycled
    # without touching replicas.
    assert [n.name for n in spec.nodes] == ["n1", "n2", "n3", "n4", "n5"]
    assert spec.owner_of("s1") == "n4"
    assert spec.owner_of("s2") == "n5"
    assert all(not n.replicas for n in spec.nodes[3:])


def test_hosts_of_covers_every_actor_on_the_node():
    spec = build_topology()
    assert set(spec.hosts_of("n1")) == {
        "n1/agent", "s1/coordinator", "s1/a1", "s1/a2",
        "s1/a3", "g1/r1", "client",
    }
    assert set(spec.hosts_of("n3")) == {"n3/agent", "g1/r3"}
    assert agent_host("n3") == "n3/agent"


def test_stream_config_identical_on_every_worker():
    spec = build_topology(rate=3000.0)
    first = spec.stream_config("s1")
    second = spec.stream_config("s1")
    assert first == second
    assert first.coordinator == "s1/coordinator"
    assert first.acceptors == ("s1/a1", "s1/a2", "s1/a3")
    assert first.lam == 24000        # scales with the offered rate
    assert build_topology(rate=100.0).lam == 4000   # never below default


def test_spec_round_trips_through_json(tmp_path):
    spec = build_topology(
        clock_skew=0.25, duration=2.5, rate=150.0, burst=4
    )
    path = tmp_path / "topology.json"
    spec.save(str(path))
    loaded = TopologySpec.load(str(path))
    assert loaded == spec
    # And the file is plain JSON with the format marker.
    raw = json.loads(path.read_text())
    assert raw["format"] == "repro-deploy-spec/2"


def test_a_two_group_spec_round_trips_through_save_and_load(tmp_path):
    nodes = (
        NodeSpec(name="n1", streams=("s1", "s2"),
                 replicas=("g1/r1", "g2/r1"), client=True),
        NodeSpec(name="n2", streams=("s3",), replicas=("g1/r2", "g2/r2")),
    )
    spec = TopologySpec(
        streams=("s1", "s2", "s3"),
        groups={"g1": ("s1", "s2"), "g2": ("s2", "s3")},
        nodes=nodes,
    )
    path = tmp_path / "topology.json"
    spec.save(str(path))
    loaded = TopologySpec.load(str(path))
    assert loaded == spec
    assert loaded.groups == {"g1": ("s1", "s2"), "g2": ("s2", "s3")}
    assert loaded.group_of("g2/r2") == "g2"


def test_a_version_1_spec_is_refused_by_its_format():
    old = build_topology().to_json()
    del old["groups"], old["replicas_per_group"]
    old.update(format="repro-deploy-spec/1", group="g1",
               initial_streams=["s1"])
    with pytest.raises(ValueError, match="repro-deploy-spec/1"):
        TopologySpec.from_json(old)
    del old["format"]       # unmarked, but shaped like /1
    with pytest.raises(ValueError, match="repro-deploy-spec/1"):
        TopologySpec.from_json(old)


def test_validation_rejects_broken_placements():
    node = NodeSpec(name="n1", streams=("s1",), replicas=("g1/r1",),
                    client=True)
    one = {"groups": {"g1": ("s1",)}, "replicas_per_group": 1}
    with pytest.raises(ValueError):     # stream placed nowhere
        TopologySpec(nodes=(node,), streams=("s1", "s2"), **one)
    with pytest.raises(ValueError):     # duplicate replica
        TopologySpec(
            nodes=(
                node,
                NodeSpec(name="n2", streams=("s2",), replicas=("g1/r1",)),
            ),
            streams=("s1", "s2"),
            **one,
        )
    with pytest.raises(ValueError):     # a replica the rule does not name
        TopologySpec(
            nodes=(node, NodeSpec(name="n2", streams=("s2",),
                                  replicas=("r2",))),
            streams=("s1", "s2"),
            groups={"g1": ("s1",)},
        )
    with pytest.raises(ValueError):     # no client anywhere
        TopologySpec(
            nodes=(NodeSpec(name="n1", streams=("s1",),
                            replicas=("g1/r1",)),),
            streams=("s1",),
            **one,
        )
    with pytest.raises(ValueError):     # unknown initial stream
        TopologySpec(
            nodes=(node, NodeSpec(name="n2", streams=("s2",))),
            streams=("s1", "s2"),
            groups={"g1": ("s9",)},
            replicas_per_group=1,
        )


def test_a_second_client_node_is_refused():
    # msg_ids are unique per client process, so a second client would
    # mint the ones the first one does (repro.spec, "integrity").
    spec = build_topology(nodes=2, streams=2, replicas=2)
    second = NodeSpec(name="n2", streams=("s2",), replicas=("g1/r2",),
                      client=True)
    with pytest.raises(ValueError, match="exactly one node must host the "
                                         "client"):
        TopologySpec(streams=spec.streams, groups=spec.groups,
                     nodes=(spec.nodes[0], second),
                     replicas_per_group=2)


def test_a_simulated_topology_needs_no_placement():
    spec = TopologySpec(streams=("S1", "S2"),
                        groups={"G1": ("S1",), "G2": ("S1", "S2")})
    assert spec.all_replicas() == ("G1/r1", "G1/r2", "G2/r1", "G2/r2")
    assert spec.acceptors("S2") == ("S2/a1", "S2/a2", "S2/a3")
    with pytest.raises(ValueError, match="simulated only"):
        build_topology(failover=("s1",))


def test_workload_spec_defaults_survive_round_trip():
    spec = build_topology(duration=1.0, rate=50.0)
    loaded = TopologySpec.from_json(spec.to_json())
    assert loaded.workload == WorkloadSpec(duration=1.0, rate=50.0)


def test_load_address_file_both_shapes(tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({
        "nodes": {"n1": {"control": ["10.0.0.5", 7801]},
                  "n2": {"control": ["10.0.0.6", 7801]}}
    }))
    assert load_address_file(str(nested)) == {
        "n1": ("10.0.0.5", 7801), "n2": ("10.0.0.6", 7801),
    }
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"n1": ["127.0.0.1", 9000]}))
    assert load_address_file(str(bare)) == {"n1": ("127.0.0.1", 9000)}
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ValueError):
        load_address_file(str(empty))
