"""End-to-end ordering through one Paxos stream on the simulated network."""

import pytest

from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.paxos.types import AppValue, SkipToken
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry

from ..helpers import make_learner


def build(env, ring_mode=True, skip_enabled=False, loss=0.0, **config_kwargs):
    rng = RngRegistry(42)
    net = Network(env, rng=rng, default_link=LinkSpec(latency=0.001, loss=loss))
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        ring_mode=ring_mode,
        skip_enabled=skip_enabled,
        **config_kwargs,
    )
    deployment = StreamDeployment(env, net, config)
    return net, deployment


def collect_learner(deployment, name="learner"):
    delivered = []

    def on_deliver(instance, batch):
        delivered.append((instance, batch))

    learner = make_learner(deployment, name, on_deliver)
    return learner, delivered


@pytest.mark.parametrize("ring_mode", [True, False])
def test_values_are_ordered_and_delivered(ring_mode):
    env = Environment()
    net, deployment = build(env, ring_mode=ring_mode)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    for i in range(20):
        deployment.propose(AppValue(payload=i))
    env.run(until=1.0)
    instances = [i for i, _b in delivered]
    assert instances == sorted(instances)
    payloads = [t.payload for _i, b in delivered for t in b.tokens]
    assert payloads == list(range(20))


def test_two_learners_deliver_identical_sequences():
    env = Environment()
    net, deployment = build(env)
    _l1, d1 = collect_learner(deployment, "learner1")
    _l2, d2 = collect_learner(deployment, "learner2")
    deployment.start()
    for i in range(30):
        deployment.propose(AppValue(payload=i))
    env.run(until=1.0)
    assert [i for i, _ in d1] == [i for i, _ in d2]
    assert [b for _, b in d1] == [b for _, b in d2]
    assert len(d1) > 0


def test_batching_groups_multiple_values_per_instance():
    env = Environment()
    net, deployment = build(env, batch_max_tokens=8)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    env.run(until=0.1)  # let phase 1 complete so proposals queue up
    for i in range(32):
        deployment.propose(AppValue(payload=i))
    env.run(until=1.0)
    # 32 values in batches of up to 8: at most 32 instances, likely fewer.
    assert sum(len(b.tokens) for _i, b in delivered) == 32
    assert any(len(b.tokens) > 1 for _i, b in delivered)


def test_skip_mechanism_sustains_virtual_rate():
    env = Environment()
    net, deployment = build(env, skip_enabled=True, lam=1000, delta_t=0.1)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    env.run(until=2.0)
    positions = sum(b.positions() for _i, b in delivered)
    # ~1000 positions/s for ~2s, allow slack for startup.
    assert positions >= 1500
    assert all(
        all(isinstance(t, SkipToken) for t in b.tokens) for _i, b in delivered
    )


def test_loaded_stream_does_not_skip():
    env = Environment()
    net, deployment = build(env, skip_enabled=True, lam=100, delta_t=0.1)
    learner, delivered = collect_learner(deployment)
    deployment.start()

    # Offered 200/s, but λ=100 caps admission: the stream runs at
    # exactly its virtual maximum and needs (almost) no skips.
    for i in range(400):
        env.call_at(i * 0.005, deployment.propose, AppValue(payload=i))
    env.run(until=2.0)
    skip_positions = sum(
        t.count
        for _i, b in delivered
        for t in b.tokens
        if isinstance(t, SkipToken)
    )
    value_count = sum(
        1 for _i, b in delivered for t in b.tokens if isinstance(t, AppValue)
    )
    assert 150 <= value_count <= 230   # ~λ values/s for ~2 s
    assert skip_positions <= 30        # only fractional top-ups


def test_lambda_caps_admission_rate():
    """λ is the maximum virtual throughput: values above it queue."""
    env = Environment()
    net, deployment = build(env, skip_enabled=True, lam=50, delta_t=0.1)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    for i in range(1000):
        deployment.propose(AppValue(payload=i))
    env.run(until=2.0)
    value_count = sum(
        1 for _i, b in delivered for t in b.tokens if isinstance(t, AppValue)
    )
    assert value_count <= 120   # ~50/s over 2 s (+ first-instant burst)


def test_lossy_network_still_delivers_everything():
    env = Environment()
    net, deployment = build(env, ring_mode=False, loss=0.05)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    for i in range(50):
        deployment.propose(AppValue(payload=i))
    env.run(until=10.0)
    payloads = [t.payload for _i, b in delivered for t in b.tokens]
    assert payloads == list(range(50))


def test_learner_recovery_catches_up_on_backlog():
    env = Environment()
    net, deployment = build(env)
    deployment.start()
    for i in range(40):
        deployment.propose(AppValue(payload=i))
    env.run(until=1.0)
    # Learner joins late: must recover the full history from acceptors.
    learner, delivered = collect_learner(deployment, "late-learner")
    learner.start_recovery()
    env.run(until=2.0)
    payloads = [t.payload for _i, b in delivered for t in b.tokens]
    assert payloads == list(range(40))


def test_throttle_caps_value_rate():
    env = Environment()
    net, deployment = build(env, value_rate_limit=100.0)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    for i in range(500):
        deployment.propose(AppValue(payload=i))
    env.run(until=2.0)
    values = sum(
        1 for _i, b in delivered for t in b.tokens if isinstance(t, AppValue)
    )
    # ~100/s over ~2s; allow the first instant's burst.
    assert values <= 230
    assert values >= 150


def test_coordinator_cpu_cost_caps_throughput():
    env = Environment()
    net, deployment = build(env, cpu_cost_per_batch=0.01, batch_max_tokens=1)
    learner, delivered = collect_learner(deployment)
    deployment.start()
    for i in range(1000):
        deployment.propose(AppValue(payload=i))
    env.run(until=1.0)
    # 10 ms of coordinator CPU per instance => ~100 instances/s.
    assert 50 <= len(delivered) <= 120
