"""Acceptor-log trim coordination.

"The URingPaxos library has several mechanisms built in to recover and
trim Paxos acceptors' logs and coordinate replica checkpoints and state
transfer" (§VI).  Without trimming, acceptor logs grow without bound --
the very problem (acceptors running out of disk) that motivates the
reconfiguration use case.

The :class:`TrimCoordinator` periodically collects, for every stream,
the highest instance each consuming replica has fully merged, and trims
the acceptors' logs to the minimum across replicas minus a safety
slack.  The slack keeps recent instances available for in-flight
subscriptions (whose scan must still find the subscribe request) and
for gap repair.

A replica that subscribes after a trim seeds its token log at the
trimmed prefix's position (see ``RecoverReply.base_position``), keeping
the merge's position arithmetic absolute.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..runtime.kernel import Kernel, Timer, every
from .replica import MulticastReplica
from .stream import StreamDeployment

__all__ = ["TrimCoordinator"]


class TrimCoordinator:
    """Periodically trims every stream's acceptor logs.

    Parameters
    ----------
    replicas:
        The replicas whose consumption constrains trimming.  Replicas
        registered here must include *every* consumer of the streams in
        ``directory``; trimming past an unregistered consumer loses data
        (the learner raises when it detects that).
    slack_instances:
        Decided instances kept behind the global minimum.
    """

    def __init__(
        self,
        env: Kernel,
        directory: Mapping[str, StreamDeployment],
        replicas: Iterable[MulticastReplica],
        interval: float = 5.0,
        slack_instances: int = 100,
    ):
        if slack_instances < 0:
            raise ValueError("slack_instances must be >= 0")
        self.env = env
        self.directory = directory
        self.replicas = list(replicas)
        self.interval = interval
        self.slack_instances = slack_instances
        self.trims_issued: list[tuple[float, str, int]] = []
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        self._timer = every(self.env, self.interval, self.trim_once)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None

    def add_replica(self, replica: MulticastReplica) -> None:
        if replica not in self.replicas:
            self.replicas.append(replica)

    def safe_horizon(self, stream: str) -> Optional[int]:
        """Trim horizon for ``stream``: min over consumers, minus slack.

        None when any consumer cannot spare anything (or a subscription
        to the stream is in flight anywhere).
        """
        consumed = []
        for replica in self.replicas:
            if replica.merger.pending_subscription == stream:
                return None
            if stream not in replica.logs:
                continue
            instance = replica.safe_trim_instance(stream)
            if instance is None:
                return None
            consumed.append(instance)
        if not consumed:
            return None
        horizon = min(consumed) + 1 - self.slack_instances
        return horizon if horizon > 0 else None

    def trim_once(self) -> None:
        for name, deployment in self.directory.items():
            horizon = self.safe_horizon(name)
            if horizon is not None:
                deployment.coordinator.trim(horizon)
                self.trims_issued.append((self.env.now, name, horizon))
