"""Acceptor-log trimming behind the slowest consumer.

"The URingPaxos library has several mechanisms built in to recover and
trim Paxos acceptors' logs and coordinate replica checkpoints and state
transfer" (§VI).  Without trimming an acceptor keeps every decided
value -- the very problem (acceptors running out of disk) that
motivates the reconfiguration use case.

A :class:`TrimCoordinator` watches every consumer of a stream directory
and trims each stream's acceptor logs with one rule:

* **Horizon.**  The exact minimum over the consuming replicas'
  :meth:`~repro.multicast.replica.MulticastReplica.safe_trim_instance`,
  with no slack: what every consumer has merged past, none will read
  again.  A stream no consumer has merged past anything of, and a
  stream any replica is subscribing to, is not trimmed.
* **Subscribe guard.**  A subscribe or prepare request for group ``G``
  is decided in the stream it was multicast to; ``G``'s replicas find
  it there, each at its own pace (Algorithm 1 scans the new stream for
  it).  Once a consumer's merger passes such a request the stream's
  horizon stays at its instance until every replica of ``G`` lists the
  requested stream in Σ.  Without it a replica of ``G`` that is behind
  gets a learner the acceptors rebase past the request
  (``LearnerCore.on_recover_reply``), and its subscribe never commits.
  A prepare that no subscribe follows holds its stream until one does.
* **Cadence.**  Every :data:`TRIM_EVERY_BYTES` of payload the consumers
  deliver: the coordinator counts delivered runs, so a paced cluster
  (the paper's regime) pays for a trim only as payload piles up.  A
  wall-clock timer firing every 5 ms cost ``live_open_multi`` 8% more
  CPU per value.  A cluster that delivers no payload never trims: its
  skip instances (about ten a second a stream) stay until it does.

The in-process :class:`~repro.runtime.supervisor.LiveCluster` is the
one place that sees every consumer, and the one that trims.  The
simulator's builders do not: a trim changes the message flow (``Trim``
messages, ``RecoverReply`` bases), so it would move every pinned
digest.  ``repro deploy`` does not either: a kill9'd worker
re-bootstraps its replica and replays its streams from instance 0, so
a deployment may trim only once it has a durable recovery point
(ROADMAP item 6).

A replica that subscribes after a trim seeds its token log at the
trimmed prefix's position (``RecoverReply.base_position``), keeping the
merge's position arithmetic absolute.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..paxos.types import AppValue, Token
from .replica import MulticastReplica
from .stream import StreamDeployment

__all__ = ["TRIM_EVERY_BYTES", "TrimCoordinator"]

# Delivered payload bytes, summed over the consumers, between trims.
TRIM_EVERY_BYTES = 1 << 20


class TrimCoordinator:
    """Trims every stream of ``directory`` behind its slowest consumer.

    ``replicas`` must be *every* consumer of those streams: trimming
    past a consumer it does not know loses that consumer's data (its
    learner raises when it notices).
    """

    def __init__(
        self,
        directory: Mapping[str, StreamDeployment],
        replicas: Iterable[MulticastReplica],
    ):
        self.directory = directory
        self.replicas = list(replicas)
        self.horizons: dict[str, int] = {}     # stream -> its last Trim
        # request id -> (group, requested stream, {stream: instance}):
        # the requests some replica of their group has yet to commit.
        self._guards: dict[int, tuple[str, str, dict[str, int]]] = {}
        self._settled: set[int] = set()
        self._unspent = TRIM_EVERY_BYTES
        for replica in self.replicas:
            replica.add_run_observer(self._delivered)
            replica.add_request_observer(self._passed)

    def _delivered(
        self, stream: str, first: int, values: Sequence[AppValue]
    ) -> None:
        self._unspent -= sum([value.size for value in values])
        if self._unspent <= 0:
            self._unspent = TRIM_EVERY_BYTES
            self.trim()

    def _passed(self, stream: str, instance: int, request: Token) -> None:
        if request.request_id in self._settled:
            return
        _group, _requested, seen = self._guards.setdefault(
            request.request_id, (request.group, request.stream, {})
        )
        seen.setdefault(stream, instance)

    def horizon(self, stream: str) -> Optional[int]:
        """The first instance ``stream``'s acceptors must keep; None
        when nothing may go."""
        lowest = None
        for replica in self.replicas:
            if replica.merger.pending_subscription == stream:
                return None
            if stream in replica.logs:
                consumed = replica.safe_trim_instance(stream)
                if consumed is None:
                    return None
                if lowest is None or consumed < lowest:
                    lowest = consumed
        if lowest is None:
            return None
        below = lowest + 1
        for _group, _requested, seen in self._guards.values():
            instance = seen.get(stream)
            if instance is not None and instance < below:
                below = instance
        return below

    def trim(self) -> None:
        """Settle the requests every replica of their group committed,
        then send a ``Trim`` for each stream whose horizon advanced."""
        for request_id, (group, requested, _seen) in list(
            self._guards.items()
        ):
            if all(
                requested in replica.subscriptions
                for replica in self.replicas if replica.group == group
            ):
                del self._guards[request_id]
                self._settled.add(request_id)
        for name, deployment in self.directory.items():
            below = self.horizon(name)
            if below is not None and below > self.horizons.get(name, 0):
                self.horizons[name] = below
                deployment.coordinator.trim(below)
