"""Per-worker deploy agent: cross-process stream directory plumbing.

In the single-process live cluster every replica holds a reference to
every :class:`~repro.multicast.stream.StreamDeployment` and calls
``add_learner`` directly.  Across processes that call has to travel:
each worker runs one :class:`DeployAgent` actor (host
``<node>/agent``), and streams hosted on *other* workers appear in the
local directory as :class:`RemoteStreamDeployment` stubs that forward
``add_learner`` / ``remove_learner`` through the agent as
:class:`~repro.deploy.wire.JoinLearner` messages over the ordinary
data transport.

The transport is fire-and-forget (frames drop under backpressure,
partition, or while a link is parked unreachable), so the agent keeps
every join pending until the owner's :class:`~repro.deploy.wire.JoinAck`
arrives, resending on a timer.  The owning side applies joins
idempotently (``StreamDeployment.add_learner`` ignores duplicates), so
retries are safe.
"""

from __future__ import annotations

from typing import Optional

from ..multicast.stream import StreamDeployment
from ..net.actor import Actor
from ..paxos.config import StreamConfig
from ..runtime.kernel import Kernel, Timer, Transport, every
from .topology import agent_host
from .wire import JoinAck, JoinLearner

__all__ = ["DeployAgent", "RemoteStreamDeployment"]

_RETRY_INTERVAL = 0.5
_MAX_RETRIES = 40


class DeployAgent(Actor):
    """One per worker: answers remote joins, retries its own."""

    def __init__(self, env: Kernel, network: Transport, node: str):
        super().__init__(env, network, agent_host(node))
        self.node = node
        self.local: dict[str, StreamDeployment] = {}
        # join_id -> (owner agent host, message, attempts)
        self._pending: dict[int, tuple[str, JoinLearner, int]] = {}
        self._next_join_id = 1
        self._retry_timer: Optional[Timer] = None
        self.joins_sent = 0
        self.joins_applied = 0
        self.joins_failed = 0

    def register_local(self, stream: str, deployment: StreamDeployment) -> None:
        """This worker owns ``stream``; answer joins for it here."""
        self.local[stream] = deployment

    # -- outbound (stub side) -----------------------------------------

    def request_join(self, owner: str, stream: str, learner: str,
                     add: bool) -> int:
        join_id = self._next_join_id
        self._next_join_id += 1
        message = JoinLearner(
            stream=stream, learner=learner, add=add, join_id=join_id
        )
        self._pending[join_id] = (owner, message, 1)
        self.joins_sent += 1
        self.send(owner, message)
        return join_id

    @property
    def pending_joins(self) -> int:
        return len(self._pending)

    def start(self) -> None:
        super().start()
        if self._retry_timer is None:
            self._retry_timer = every(
                self.env, _RETRY_INTERVAL, self._retry_tick
            )

    def stop(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        super().stop()

    def _retry_tick(self) -> None:
        for join_id in list(self._pending):
            owner, message, attempts = self._pending[join_id]
            if attempts >= _MAX_RETRIES:
                # Give up, counted in the worker's ``status``: a join
                # that never lands means the owner stayed dead for the
                # whole window.
                del self._pending[join_id]
                self.joins_failed += 1
                continue
            self._pending[join_id] = (owner, message, attempts + 1)
            self.send(owner, message)

    # -- inbound (owner side) -----------------------------------------

    def on_join_learner(self, msg: JoinLearner, src: str) -> None:
        deployment = self.local.get(msg.stream)
        if deployment is not None:
            if msg.add:
                deployment.add_learner(msg.learner)
            else:
                deployment.remove_learner(msg.learner)
            self.joins_applied += 1
        # Ack even when the stream is unknown here: the requester must
        # stop retrying (a misrouted join will never become routable --
        # stream placement is fixed by the spec).
        self.send(src, JoinAck(join_id=msg.join_id))

    def on_join_ack(self, msg: JoinAck, src: str) -> None:
        self._pending.pop(msg.join_id, None)


class RemoteStreamDeployment:
    """Directory stub for a stream hosted on another worker.

    Exposes exactly the surface :class:`~repro.multicast.replica
    .MulticastReplica` and :class:`~repro.multicast.api.MulticastClient`
    use from a directory entry: ``config`` (reconstructed identically
    from the spec, so ``config.coordinator`` routes over the wire) and
    the learner registration calls, forwarded through the agent.
    """

    # A deployment trims nothing: its consumers live in other processes
    # (multicast/trim.py).
    trimmer = None

    def __init__(self, config: StreamConfig, agent: DeployAgent,
                 owner_node: str):
        self.config = config
        self.agent = agent
        self.owner_agent = agent_host(owner_node)

    @property
    def name(self) -> str:
        return self.config.name

    def add_learner(self, learner_name: str) -> None:
        self.agent.request_join(
            self.owner_agent, self.config.name, learner_name, add=True
        )

    def remove_learner(self, learner_name: str) -> None:
        self.agent.request_join(
            self.owner_agent, self.config.name, learner_name, add=False
        )

    def start(self) -> None:       # the owner starts the real actors
        pass

    def stop(self) -> None:
        pass
