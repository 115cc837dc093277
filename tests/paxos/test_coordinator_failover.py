"""Coordinator takeover: a higher ballot adopts accepted values."""

import pytest

from repro.multicast.stream import StreamDeployment
from repro.paxos import AppValue, CoordinatorActor, StreamConfig
from repro.sim import Environment, LinkSpec, Network, RngRegistry


def test_takeover_preserves_decided_prefix():
    """A second coordinator takes over and does not contradict the
    first one's decisions (it re-proposes the adopted values)."""
    env = Environment()
    net = Network(env, rng=RngRegistry(13), default_link=LinkSpec(latency=0.001))
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        ring_mode=False,          # classic quorum mode for this test
        skip_enabled=False,
    )
    deployment = StreamDeployment(env, net, config)
    delivered = []
    deployment.make_learner("learner", lambda i, b: delivered.append((i, b)))
    deployment.start()
    for i in range(10):
        deployment.propose(AppValue(payload=("old", i)))
    env.run(until=0.5)
    first_decisions = list(delivered)
    assert len(first_decisions) > 0

    # The original coordinator dies; a backup claims the stream.
    deployment.coordinator.crash()
    backup = CoordinatorActor(
        env, net,
        StreamConfig(
            name="S1",
            acceptors=config.acceptors,
            coordinator="S1/backup",
            ring_mode=False,
            skip_enabled=False,
        ),
        coordinator_index=1,
        n_coordinators=2,
    )
    backup.ballot = 1   # coordinator 1 of 2 owns odd ballots
    backup.add_learner("learner")
    backup.start()
    env.run(until=1.0)
    assert backup.leading

    for i in range(5):
        backup.propose(AppValue(payload=("new", i)))
    env.run(until=2.0)

    # All old decisions unchanged, new values ordered after them.
    for instance, batch in first_decisions:
        later = dict(delivered)
        assert later[instance] == batch
    payloads = [t.payload for _i, b in sorted(delivered) for t in b.tokens]
    assert payloads[-5:] == [("new", i) for i in range(5)]
    assert payloads.count(("old", 0)) == 1


def test_stale_coordinator_cannot_decide_after_takeover():
    """Once acceptors promised a higher ballot, the old coordinator's
    proposals are rejected."""
    env = Environment()
    net = Network(env, rng=RngRegistry(14), default_link=LinkSpec(latency=0.001))
    config = StreamConfig(
        name="S1",
        acceptors=("S1/a1", "S1/a2", "S1/a3"),
        ring_mode=False,
        skip_enabled=False,
        retransmit_timeout=10.0,   # no retries: make rejection visible
    )
    deployment = StreamDeployment(env, net, config)
    delivered = []
    deployment.make_learner("learner", lambda i, b: delivered.append((i, b)))
    deployment.start()
    env.run(until=0.2)
    old = deployment.coordinator

    backup = CoordinatorActor(
        env, net,
        StreamConfig(
            name="S1", acceptors=config.acceptors, coordinator="S1/backup",
            ring_mode=False, skip_enabled=False,
        ),
        coordinator_index=1,
        n_coordinators=2,
    )
    backup.ballot = 1001   # far above the old coordinator's ballot
    backup.add_learner("learner")
    backup.start()
    env.run(until=0.5)
    assert backup.leading

    before = len(delivered)
    old.propose(AppValue(payload="stale"))
    env.run(until=1.0)
    stale_delivered = [
        t.payload for _i, b in delivered for t in b.tokens if t.payload == "stale"
    ]
    assert stale_delivered == []
    assert len(delivered) == before


def _cut_off_deployment(ring_mode):
    env = Environment()
    net = Network(env, rng=RngRegistry(15), default_link=LinkSpec(latency=0.001))
    config = StreamConfig(
        name="S1", acceptors=("S1/a1", "S1/a2", "S1/a3"), ring_mode=ring_mode,
    )
    deployment = StreamDeployment(env, net, config)
    delivered = []
    deployment.make_learner("learner", lambda i, b: delivered.append(b))
    return env, net, deployment, delivered


def _values(delivered):
    return [t.payload for b in delivered for t in b.tokens
            if isinstance(t, AppValue)]


@pytest.mark.parametrize("ring_mode", [True, False])
def test_a_coordinator_whose_phase1_is_lost_at_start_retries(ring_mode):
    # Phase 1 runs at start; if every Phase1a or Phase1b is lost the
    # coordinator must escalate its ballot on its own, or the stream
    # never decides anything.
    env, net, deployment, delivered = _cut_off_deployment(ring_mode)
    coordinator = {deployment.coordinator.name}
    acceptors = set(deployment.config.acceptors)
    net.partition(coordinator, acceptors)
    deployment.start()
    env.run(until=0.05)
    net.unpartition(coordinator, acceptors)
    for i in range(5):
        deployment.propose(AppValue(payload=("v", i)))
    env.run(until=3.0)
    assert deployment.coordinator.leading
    assert _values(delivered) == [("v", i) for i in range(5)]


@pytest.mark.parametrize("ring_mode", [True, False])
def test_a_coordinator_whose_phase1_is_lost_at_recovery_retries(ring_mode):
    env, net, deployment, delivered = _cut_off_deployment(ring_mode)
    deployment.start()
    env.run(until=0.5)
    assert deployment.coordinator.leading
    coordinator = {deployment.coordinator.name}
    acceptors = set(deployment.config.acceptors)
    net.partition(coordinator, acceptors)
    deployment.coordinator.crash()
    deployment.coordinator.recover()
    env.run(until=0.55)
    net.unpartition(coordinator, acceptors)
    for i in range(5):
        deployment.propose(AppValue(payload=("v", i)))
    env.run(until=3.0)
    assert deployment.coordinator.leading
    assert _values(delivered) == [("v", i) for i in range(5)]
