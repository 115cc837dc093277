"""Reconfiguration actions and the executor that issues them.

The three actions are the paper's three elasticity use cases:

* :class:`SubscribeStream` -- grow capacity: provision a stream and
  ``subscribe_msg`` the group to it (§IV-B, Figure 3).
* :class:`SplitShard` -- spread a hot key range: provision a stream,
  subscribe, and route half of the hot shard's keyspace there
  (Figure 4's re-partitioning, driven autonomously).
* :class:`ReplaceStream` -- retire a slow acceptor ring: provision a
  fresh stream, subscribe, drain traffic over, then ``unsubscribe_msg``
  the old one (Figure 5's reconfiguration pattern).

:class:`SimExecutor` applies them to a
:class:`repro.harness.cluster.MulticastCluster` through the existing
coordination layer -- provisioning via the stream directory, the
subscription protocol via :class:`repro.multicast.api.MulticastClient`,
traffic movement via the :class:`~repro.elasticity.router.StreamRouter`.
Everything is deterministic: stream names are the lowest unused index,
and retirement happens a fixed drain delay after the replacement
commits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .router import StreamRouter
from .signals import SignalSnapshot

__all__ = [
    "ReplaceStream",
    "SimExecutor",
    "SplitShard",
    "SubscribeStream",
]


@dataclass(frozen=True)
class SubscribeStream:
    """Subscribe the group to ``stream`` (provisioning it if needed)."""

    stream: str          # the new stream
    via: str             # carrier: a stream the group subscribes to
    kind: str = "subscribe"


@dataclass(frozen=True)
class SplitShard:
    """Move half of ``shard``'s key range onto (new) ``stream``."""

    shard: int
    stream: str
    via: str
    kind: str = "split"


@dataclass(frozen=True)
class ReplaceStream:
    """Replace ``old``'s acceptor ring with fresh ``stream``."""

    old: str
    stream: str
    via: str
    kind: str = "replace"


class SimExecutor:
    """Issues actions against a simulated cluster.

    ``execute`` returns the control-plane ``request_id`` of the
    subscription it issued, the same id the ``control.subscribe`` and
    ``merge.subscribe.commit`` trace events carry -- the causal link
    the trace tests follow from decision to reconfiguration.
    """

    def __init__(
        self,
        cluster,
        group: str,
        router: StreamRouter,
        retire_delay: float = 0.75,
    ):
        self.cluster = cluster
        self.group = group
        self.router = router
        self.retire_delay = retire_delay
        self.retired: list[str] = []
        self._retirements: list[dict] = []

    def next_stream_name(self) -> str:
        index = 1
        while f"S{index}" in self.cluster.directory:
            index += 1
        return f"S{index}"

    def execute(self, action) -> int:
        if action.stream not in self.cluster.directory:
            self.cluster.add_stream(action.stream)
        client = self.cluster.client
        request_id = client.subscribe_msg(self.group, action.stream, action.via)
        if isinstance(action, SubscribeStream):
            self.router.spread(action.stream)
        elif isinstance(action, SplitShard):
            self.router.split(action.shard, action.stream)
        elif isinstance(action, ReplaceStream):
            self.router.move_all(action.old, action.stream)
            self._retirements.append(
                {"old": action.old, "new": action.stream}
            )
        else:
            raise TypeError(f"unknown action {action!r}")
        return request_id

    def poll(self, snapshot: SignalSnapshot) -> None:
        """Advance in-flight retirements (called every controller tick).

        A replacement's old ring is unsubscribed only once (a) the new
        stream's subscription committed everywhere, (b) traffic stopped
        routing to the old stream, and (c) a drain delay elapsed so
        in-flight messages ordered in the old stream are delivered."""
        for retirement in list(self._retirements):
            if retirement["new"] not in snapshot.streams:
                continue
            if self.router.routes_to(retirement["old"]):
                continue
            if "ready_at" not in retirement:
                retirement["ready_at"] = snapshot.at + self.retire_delay
                continue
            if snapshot.at < retirement["ready_at"]:
                continue
            self.cluster.client.unsubscribe_msg(
                self.group, retirement["old"]
            )
            self.retired.append(retirement["old"])
            self._retirements.remove(retirement)
