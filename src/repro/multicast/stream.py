"""Streams: the unit Elastic Paxos composes.

A *stream* is one Multi-Paxos sequence.  :class:`StreamDeployment`
wires a coordinator and its acceptors onto the simulated network and
manages the learner set (in ring mode the decision fan-out happens at
the last acceptor, so learner changes are pushed to the acceptors --
the role ZooKeeper plays for URingPaxos).

:class:`TokenLog` is the replica-side view of a stream: decided batches
flattened into a position-indexed sequence of tokens, kept from where
the replica's merger reads on.  *Positions* are
the timestamps of Elastic Paxos -- the subscribe request's position in
each stream defines the merge point -- so they are absolute from the
beginning of the stream.  A :class:`SkipToken` with count ``n``
occupies ``n`` consecutive positions.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional

import dataclasses

from ..paxos.acceptor import AcceptorActor
from ..paxos.config import StreamConfig, coordinator_name
from ..paxos.coordinator import CoordinatorActor
from ..paxos.ballot import quorum_size
from ..paxos.failover import FailoverMonitor, RingWatchdog
from ..paxos.types import Batch, Token
from ..runtime.kernel import Kernel, Transport
from ..storage.stable import StableStore

__all__ = ["StreamDeployment", "TokenLog"]

_INF = float("inf")
# Tokens below the reader that a log lets pile up before it compacts:
# it compacts once they are this many and at least as many as it keeps.
_RELEASE_AT = 64


class TokenLog:
    """Position-indexed token sequence of one stream, as a window.

    Tokens are appended at the frontier.  The log has one reader, the
    merger's :class:`~repro.multicast.merge.StreamCursor`, which tells
    it (:meth:`release`) what it will never read again; the log then
    drops those tokens, whole and in amortised batches, and keeps the
    last batch boundary at or below the reader, so :meth:`replay_point`
    answers for any position from the reader's on exactly as a log that
    kept everything would.
    Token indices count from the oldest token kept.
    """

    def __init__(self, start_position: int = 0, start_instance: int = 0):
        self._tokens: list[Token] = []
        self._starts: list[int] = []          # start position of each token
        self._frontier = start_position       # first position not yet filled
        self._base = start_position
        self._horizon = start_position        # first position still kept
        self._start_instance = start_instance   # whose tokens start at base
        # (end_position, instance) per appended batch: a position maps
        # back to the Paxos instance to replay it from.
        self._batch_ends: list[tuple[int, int]] = []
        self._has_reader = False

    @property
    def frontier(self) -> int:
        """First position for which no token is known yet."""
        return self._frontier

    @property
    def base(self) -> int:
        """First position this log covers (0 unless seeded post-trim)."""
        return self._base

    @property
    def horizon(self) -> int:
        """First position still readable: ``base`` until the reader
        released a prefix."""
        return self._horizon

    def attach_reader(self) -> None:
        """Register the log's one reader (a merger's cursor)."""
        if self._has_reader:
            raise RuntimeError("a token log has exactly one reader")
        self._has_reader = True

    def rebase(self, position: int, instance: int) -> None:
        """Seed an empty log at ``instance``'s ``position`` (post-trim)."""
        if self._frontier != self._base:
            raise RuntimeError("cannot rebase a log that already has tokens")
        if position < self._base:
            raise ValueError("rebase must not move backwards")
        self._base = self._horizon = self._frontier = position
        self._start_instance = instance

    def append_batch(self, batch: Batch, instance: Optional[int] = None) -> None:
        for token in batch.tokens:
            self.append(token)
        if instance is not None:
            self._batch_ends.append((self._frontier, instance))

    def _boundary_below(self, position: int) -> int:
        """Index of the last batch boundary at or below ``position``,
        -1 for none; raises for a position the reader released."""
        if position < self._horizon and self._base < self._horizon:
            raise ValueError(
                f"position {position} is below the released horizon "
                f"{self._horizon}"
            )
        return bisect.bisect_right(self._batch_ends, (position, _INF)) - 1

    def instance_of(self, position: int) -> Optional[int]:
        """Instance whose batch holds ``position``, a position at or past
        the reader's; None past the logged batches."""
        ends = self._batch_ends
        index = bisect.bisect_right(ends, (position, _INF))
        return ends[index][1] if index < len(ends) else None

    def replay_point(self, position: int) -> tuple[int, int]:
        """Where a recovering replica must restart to cover ``position``.

        Returns ``(instance, base_position)``: re-fetch decided batches
        from ``instance`` on, seed the fresh token log at
        ``base_position`` (the start of that instance's tokens), and the
        merge cursor resumes at ``position`` -- anything between base
        and cursor is re-fetched but not re-delivered.  Both halves name
        one batch boundary: before the first whole batch it is the
        log's own seed, never instance 0 at a later base.
        """
        index = self._boundary_below(position)
        if index < 0:
            return self._start_instance, self._base
        end, instance = self._batch_ends[index]
        return instance + 1, end

    def append(self, token: Token) -> None:
        positions = token.positions()
        if positions <= 0:
            raise ValueError(f"token {token!r} occupies no position")
        self._tokens.append(token)
        self._starts.append(self._frontier)
        self._frontier += positions

    def token_count(self) -> int:
        """Tokens kept (from the horizon to the frontier)."""
        return len(self._tokens)

    def start_of(self, index: int) -> int:
        """Start position of the token at ``index``."""
        return self._starts[index]

    def token_covering(self, position: int, hint: int = 0) -> tuple[Optional[Token], int]:
        """Return ``(token, token_index)`` covering ``position``.

        ``hint`` is a token index to start the forward scan from (the
        merger's cursor); the scan is O(1) amortized for sequential
        access.  Returns ``(None, token_count())`` when ``position`` is
        at or beyond the frontier.  Raises ValueError below the horizon.
        """
        if position < self._horizon:
            raise ValueError(
                f"position {position} precedes the log's horizon "
                f"{self._horizon} (base {self._base})"
            )
        tokens = self._tokens
        starts = self._starts
        count = len(tokens)
        if position >= self._frontier:
            return None, count
        index = hint
        if index < 0:
            index = 0
        elif index >= count:
            index = count - 1
        # Walk backwards if the hint overshot, forwards otherwise.
        while starts[index] > position:
            index -= 1
        while index + 1 < count and starts[index + 1] <= position:
            if position < starts[index] + tokens[index].positions():
                break
            index += 1
        return tokens[index], index

    def release(self, position: int, index: int) -> int:
        """The reader is at ``position``, on the token at ``index`` (or
        past the frontier, ``index`` then the token count): it never
        reads below either again.  Drops the tokens before ``index``
        once they are ``_RELEASE_AT`` or more and at least as many as
        those kept, and returns how many it dropped, by which every kept
        token's index fell."""
        if index < _RELEASE_AT or index + index < len(self._tokens):
            return 0
        del self._tokens[:index]
        del self._starts[:index]
        self._horizon = self._starts[0] if self._starts else self._frontier
        ends = self._batch_ends
        keep = bisect.bisect_right(ends, (position, _INF)) - 1
        if keep > 0:
            del ends[:keep]
        return index


class StreamDeployment:
    """One stream's server side: coordinator + acceptors on the network."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        config: StreamConfig,
        stable_store_factory: Optional[Callable[[str], StableStore]] = None,
        recovery_instance_cost: float = 0.0,
    ):
        self.env = env
        self.network = network
        self.config = config
        # Two coordinator slots (primary + optional standby) partition
        # the ballot space: primary owns even ballots, standby odd.
        self.coordinator = CoordinatorActor(
            env, network, config, coordinator_index=0, n_coordinators=2
        )
        self.standby: Optional[CoordinatorActor] = None
        self.monitor: Optional[FailoverMonitor] = None
        self.watchdog: Optional[RingWatchdog] = None
        self.acceptors: list[AcceptorActor] = []
        for name in config.acceptors:
            store = stable_store_factory(name) if stable_store_factory else None
            self.acceptors.append(
                AcceptorActor(
                    env,
                    network,
                    name,
                    stream=config.name,
                    ring=config.acceptors,
                    store=store,
                    recovery_instance_cost=recovery_instance_cost,
                )
            )
        self._learners: list[str] = []
        self._sync_decision_targets()
        self.started = False
        # The cluster's TrimCoordinator, when one process sees every
        # consumer (multicast/trim.py); a replica joins it on attaching.
        self.trimmer = None

    @property
    def name(self) -> str:
        return self.config.name

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        for acceptor in self.acceptors:
            acceptor.start()
        self.coordinator.start()

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self.coordinator.stop()
        if self.standby is not None:
            self.standby.stop()
        if self.monitor is not None:
            self.monitor.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
        for acceptor in self.acceptors:
            acceptor.stop()

    # -- failover ----------------------------------------------------------

    def enable_failover(
        self, interval: float = 0.1, misses: int = 3
    ) -> FailoverMonitor:
        """Deploy a standby coordinator plus a heartbeat monitor that
        promotes it when the primary goes silent."""
        if self.standby is not None:
            raise RuntimeError(f"stream {self.name} already has a standby")
        standby_config = dataclasses.replace(
            self.config, coordinator=coordinator_name(self.name, standby=True)
        )
        self.standby = CoordinatorActor(
            self.env,
            self.network,
            standby_config,
            coordinator_index=1,
            n_coordinators=2,
            standby=True,
        )
        self.standby.start()
        self.monitor = FailoverMonitor(
            self.env,
            self.network,
            f"{self.name}/monitor",
            active=self.config.coordinator,
            standby=self.standby,
            interval=interval,
            misses=misses,
            on_failover=self._on_failover,
        )
        self.monitor.start()
        return self.monitor

    def _on_failover(self) -> None:
        """Repoint the deployment at the promoted standby."""
        for learner in self._learners:
            self.standby.add_learner(learner)
        self.coordinator = self.standby
        self.config.coordinator = self.standby.name
        self._sync_decision_targets()

    # -- ring reformation ------------------------------------------------------

    def enable_ring_watchdog(
        self, interval: float = 0.1, misses: int = 3
    ) -> RingWatchdog:
        """Monitor the acceptor ring and reform it around crashed
        members (URingPaxos keeps the ring layout in ZooKeeper and
        reforms it the same way)."""
        self.watchdog = RingWatchdog(
            self.env,
            self.network,
            f"{self.name}/ring-watchdog",
            targets=list(self.config.acceptors),
            on_suspect=self.reform_ring,
            interval=interval,
            misses=misses,
        )
        self.watchdog.start()
        return self.watchdog

    def reform_ring(self, crashed: str) -> None:
        """Remove ``crashed`` from the ring and re-anchor the stream.

        Safe while the surviving ring still constitutes a majority of
        the original acceptor set: every decided instance was accepted
        by the full ring, so the survivors hold all decided state, and
        Phase 1 on the new ring re-anchors anything in flight.
        """
        survivors = tuple(a for a in self.config.acceptors if a != crashed)
        original = getattr(self, "_original_acceptors", None)
        if original is None:
            original = self.config.acceptors
            self._original_acceptors = original
        if len(survivors) < quorum_size(len(original)):
            raise RuntimeError(
                f"cannot reform ring of {self.name}: survivors {survivors} "
                f"are no majority of {original}"
            )
        self.config.acceptors = survivors
        self.acceptors = [a for a in self.acceptors if a.name != crashed]
        for acceptor in self.acceptors:
            acceptor.core.ring = survivors
        self._sync_decision_targets()
        if getattr(self, "watchdog", None) is not None:
            self.watchdog.forget(crashed)
        self.coordinator.take_over()

    # -- learner management (the ZooKeeper-maintained ring config) --------

    def add_learner(self, learner_name: str) -> None:
        if learner_name in self._learners:
            return
        self._learners.append(learner_name)
        self.coordinator.add_learner(learner_name)
        self._sync_decision_targets()

    def remove_learner(self, learner_name: str) -> None:
        if learner_name not in self._learners:
            return
        self._learners.remove(learner_name)
        self.coordinator.remove_learner(learner_name)
        self._sync_decision_targets()

    def _sync_decision_targets(self) -> None:
        # In ring mode the final acceptor fans decisions out to the
        # other acceptors, the coordinator and every learner.
        targets = (
            list(self.config.acceptors)
            + [self.config.coordinator]
            + list(self._learners)
        )
        for acceptor in self.acceptors:
            acceptor.decision_targets = targets

    # -- convenience -------------------------------------------------------

    def propose(self, token: Token) -> None:
        """Inject a token at the coordinator (zero client latency)."""
        self.coordinator.propose(token)

