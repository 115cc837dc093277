"""Test scaffolding shared by several test packages."""

from __future__ import annotations

from typing import Callable

from repro.multicast.stream import StreamDeployment
from repro.paxos.learner import LearnerActor
from repro.paxos.types import Batch


def make_learner(
    deployment: StreamDeployment,
    name: str,
    on_deliver: Callable[[int, Batch], None],
) -> LearnerActor:
    """Create (and start) a bare learner attached to ``deployment``'s
    stream, which hands it every decided ``(instance, batch)``."""
    learner = LearnerActor(
        deployment.env, deployment.network, name, deployment.config, on_deliver
    )
    learner.start()
    deployment.add_learner(name)
    return learner
