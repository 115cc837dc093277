"""Acceptor-log trimming behind the slowest consumer.

"The URingPaxos library has several mechanisms built in to recover and
trim Paxos acceptors' logs and coordinate replica checkpoints and state
transfer" (§VI).  Without trimming an acceptor keeps every decided
value -- the very problem (acceptors running out of disk) that
motivates the reconfiguration use case.

**Who trims.**  A cluster whose one process sees every consumer of its
streams builds one :class:`TrimCoordinator` over its stream directory:
the simulator's :class:`~repro.harness.cluster.MulticastCluster` (so
every simulated driver, whatever replica class it deploys) and the
in-process :class:`~repro.runtime.supervisor.LiveCluster`.  The
coordinator hangs itself on each :class:`StreamDeployment`; a replica
joins it when it attaches a learner to one of those streams
(bootstrap, subscribe, prepare, recovery), so no builder lists the
consumers and none can forget one.

**Horizon.**  The first instance a stream's acceptors must keep is the
lowest instance any consumer may still replay, over the replicas'
:meth:`~repro.multicast.replica.MulticastReplica.replay_floor`:

* a replica that never checkpoints may replay nothing it has merged
  past: its floor is its merge cursor's replay point (the exact
  minimum, no slack);
* a replica that checkpoints recovers from its latest checkpoint: it
  holds each stream that checkpoint lists at the checkpoint's replay
  point, even one it unsubscribed from since, and a crash followed by
  ``recover_from_checkpoint`` finds every instance it re-fetches;
* a stream any replica is subscribing to (a pending subscription) is
  not trimmed at all.

**Subscribe guard.**  A subscribe or prepare request for group ``G`` is
decided in the stream it was multicast to; ``G``'s replicas find it
there, each at its own pace (Algorithm 1 scans the new stream for it).
Once a consumer's merger passes such a request the stream's horizon
stays at its instance until every replica of ``G`` resumes with the
requested stream: lists it in Σ and, if it checkpoints, in its latest
checkpoint (a replay from an older one scans for the request again).
Without it a replica of ``G`` that is behind gets a learner the
acceptors rebase past the request (``LearnerCore.on_recover_reply``),
and its subscribe never commits.  A prepare that no subscribe follows
holds its stream until one does.

**Cadence.**  A stream is trimmed once its consumers, summed over
them, have learned :data:`TRIM_EVERY_BYTES` of its payload and
:data:`TRIM_EVERY_TOKENS` of its tokens since its last trim: a paced
cluster (the paper's regime) pays for a trim only as payload piles up,
and only for the stream that grew.  A trim is one ``Trim`` to each of
the stream's acceptors, so the token count spreads it over at least
that many tokens: Figure 3's 32 KiB values would otherwise pay one
every sixteen values, while at 8 KiB both counts fall due together.  A
wall-clock timer firing every 5 ms cost ``live_open_multi`` 8% more
CPU per value.  A stream whose consumers learn no payload is never
trimmed: its skip instances (about ten a second) stay until it carries
values again.

``repro deploy`` does not trim: its consumers live in other processes,
and a kill9'd worker re-bootstraps its replica and replays its streams
from instance 0, so a deployment may trim only once replicas report
their floors across processes and have a durable recovery point
(ROADMAP items 5 and 6).

A replica that subscribes after a trim seeds its token log at the
trimmed prefix's position (``RecoverReply.base_position``), keeping the
merge's position arithmetic absolute.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..paxos.types import Batch, Token
from .replica import MulticastReplica
from .stream import StreamDeployment

__all__ = ["TRIM_EVERY_BYTES", "TRIM_EVERY_TOKENS", "TrimCoordinator"]

# What a stream's consumers learn, summed over them, between two trims
# of that stream: this many payload bytes and this many tokens.
TRIM_EVERY_BYTES = 1 << 20
TRIM_EVERY_TOKENS = 64


def _resumes_with(replica: MulticastReplica, stream: str) -> bool:
    """Whether ``replica`` would read ``stream`` from a cursor of its own
    if it recovered now: ``stream`` is in its Σ and, once it
    checkpoints, in its latest checkpoint."""
    return stream in replica.subscriptions and (
        replica.checkpointed is None or stream in replica.checkpointed
    )


class TrimCoordinator:
    """Trims every stream of ``directory`` behind its slowest consumer.

    Every replica that attaches to one of those streams joins it
    (module docstring): trimming past a consumer it does not know
    would lose that consumer's data (its learner raises when it
    notices).
    """

    def __init__(self, directory: Mapping[str, StreamDeployment]):
        self.directory = directory
        self.replicas: list[MulticastReplica] = []
        self.horizons: dict[str, int] = {}     # stream -> its last Trim
        # request id -> (group, requested stream, {stream: instance}):
        # the requests some replica of their group has yet to resume with.
        self._guards: dict[int, tuple[str, str, dict[str, int]]] = {}
        self._settled: set[int] = set()
        # stream -> [bytes, tokens] its consumers have yet to learn
        self._owed: dict[str, list[int]] = {}
        for deployment in directory.values():
            deployment.trimmer = self

    def join(self, replica: MulticastReplica, stream: str) -> None:
        """``replica`` attached a learner to ``stream``."""
        self._owed.setdefault(stream, [TRIM_EVERY_BYTES, TRIM_EVERY_TOKENS])
        if replica not in self.replicas:
            self.replicas.append(replica)
            replica.add_request_observer(self._passed)

    def learned(self, stream: str, batch: Batch) -> None:
        """A consumer learned ``batch`` of ``stream``: the cadence."""
        owed = self._owed[stream]
        owed[0] -= batch.payload_bytes
        owed[1] -= batch.token_count
        if owed[0] <= 0 and owed[1] <= 0:
            owed[0] = TRIM_EVERY_BYTES
            owed[1] = TRIM_EVERY_TOKENS
            self.trim(stream)

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
            floor = replica.replay_floor(stream)
            if floor is not None and (lowest is None or floor < lowest):
                lowest = floor
        if lowest is None:
            return None
        for _group, _requested, seen in self._guards.values():
            instance = seen.get(stream)
            if instance is not None and instance < lowest:
                lowest = instance
        return lowest

    def trim(self, *streams: str) -> None:
        """Settle the requests every replica of their group resumes
        with, then send a ``Trim`` for each of ``streams`` (default:
        all) whose horizon advanced."""
        if self._guards:
            for request_id, (group, requested, _seen) in list(
                self._guards.items()
            ):
                if all(
                    _resumes_with(replica, requested)
                    for replica in self.replicas if replica.group == group
                ):
                    del self._guards[request_id]
                    self._settled.add(request_id)
        for name in streams or self.directory:
            below = self.horizon(name)
            if below is not None and below > self.horizons.get(name, 0):
                self.horizons[name] = below
                self.directory[name].coordinator.trim(below)
