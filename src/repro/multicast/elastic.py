"""Elastic Paxos deterministic merge (Algorithm 1 of the paper).

:class:`ElasticMerger` is the dMerge task that runs at every replica.
It merges the streams in Σ (the replica's current subscriptions) by
strict round-robin over stream *positions*, delivering application
values and consuming skip/control tokens silently, and it handles the
three dynamic-subscription control messages:

``subscribe_msg(G, S_N)``
    Atomically multicast to *both* the new stream ``S_N`` and one
    currently subscribed stream.  When the merger consumes the request
    from a subscribed stream it (1) spawns a learner for ``S_N`` (if a
    ``prepare_msg`` did not already), (2) scans ``S_N`` -- recovering
    its history -- until it finds the same request, (3) computes the
    merge point as ``max`` over the positions at which the request was
    seen and the current cursors of the other subscribed streams, then
    (4) lets the old streams deliver up to the merge point, discards
    everything in ``S_N`` before it, and finally adds ``S_N`` to Σ.
    Because the merge point is a deterministic function of the token
    sequences, every replica of ``G`` computes the same one, which is
    what makes delivery acyclic (Fig. 2 of the paper).

``unsubscribe_msg(G, S)``
    Ordered in *any* subscribed stream (the total order over Σ already
    exists); consuming it removes ``S`` from Σ on the spot.

``prepare_msg(G, S_N)`` (optimization, §V-C)
    A hint: start a background learner for ``S_N`` now so that the
    scan in step (2) finds everything already recovered and the
    subscription causes no delivery stall (used by the paper's
    reconfiguration experiment, Fig. 5).

Determinism notes (choices Algorithm 1 leaves open, pinned here):

* Σ is kept sorted by stream name and round-robin restarts from
  ``first(Σ)`` after a subscription commits -- this reproduces the
  delivery orders shown in Fig. 2 for both groups.
* While the merger waits for the subscribe request to appear in the
  new stream, delivery from the old streams is suspended (exactly the
  Algorithm 1 behaviour whose cost Fig. 3 shows and whose remedy is
  ``prepare_msg``).
* Subscribe requests consumed while another subscription is still in
  progress are deferred (FIFO) and handled right after it commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..paxos.types import (
    AppValue,
    PrepareMsg,
    SkipToken,
    SubscribeMsg,
    Token,
    UnsubscribeMsg,
)
from .merge import StreamCursor
from .stream import TokenLog

__all__ = ["ElasticMerger", "MergerStats"]

_SCANNING = "scanning"
_ALIGNING = "aligning"


@dataclass
class _PendingSubscription:
    """In-flight subscribe handling state."""

    stream: str
    request_id: int
    phase: str = _SCANNING
    merge_ptr: int = -1
    started_at: float = 0.0


@dataclass
class MergerStats:
    """Counters exposed for tests and experiment instrumentation."""

    delivered: int = 0
    discarded: int = 0                  # tokens of a new stream before merge point
    subscriptions: int = 0
    unsubscriptions: int = 0
    per_stream_delivered: dict = field(default_factory=dict)
    # request_id -> (stream, merge point) per committed subscription.
    # Every replica of a group must compute the same merge point for the
    # same request (Fig. 2); the fault-injection invariant checkers
    # compare these across replicas.
    merge_points: dict = field(default_factory=dict)


class ElasticMerger:
    """The dMerge task of one replica in replication group ``group``.

    Parameters
    ----------
    group:
        Replication group this replica belongs to; control messages of
        other groups are consumed silently.
    deliver:
        ``deliver(stream, first_position, values)`` called in merge
        order: ``values`` were delivered from ``stream`` at the
        consecutive positions from ``first_position`` on.  With one
        stream in Σ and no subscription pending a step delivers the
        whole decided run under the cursor; otherwise Algorithm 1 takes
        one position per turn and every run is one value long.
    stream_provider:
        ``stream_provider(stream_name) -> TokenLog`` -- invoked when the
        merger needs a stream it has no learner for (subscribe without
        prepare, or the prepare hint itself).  The provider must create
        the learner, start recovery, and arrange for
        :meth:`notify` to be called as tokens arrive.
    stream_releaser:
        ``stream_releaser(stream_name)`` -- invoked after an
        unsubscription so the deployment can stop the learner.
    on_subscription_change:
        Optional callback ``(kind, stream)`` with kind ``"subscribe"``
        or ``"unsubscribe"``, fired when Σ changes (the key/value store
        uses it to switch partitions).
    """

    def __init__(
        self,
        group: str,
        deliver: Callable[[str, int, Sequence[AppValue]], None],
        stream_provider: Callable[[str], TokenLog],
        stream_releaser: Optional[Callable[[str], None]] = None,
        on_subscription_change: Optional[Callable[[str, str], None]] = None,
        now: Callable[[], float] = lambda: 0.0,
        owner: str = "",
        env=None,
    ):
        self.group = group
        self.deliver = deliver
        self.stream_provider = stream_provider
        self.stream_releaser = stream_releaser or (lambda name: None)
        self.on_subscription_change = on_subscription_change or (lambda k, s: None)
        self.now = now
        # Trace identity: the replica hosting this merger, and the
        # environment whose tracer subscription switches are reported to
        # (None keeps the merger fully standalone, as in the unit tests).
        self.owner = owner or f"merger:{group}"
        self.env = env
        # The merger runs standalone in unit tests (env=None); when
        # simulated, env.tracer is fixed, so pre-gate the probe here.
        self._tracer = env.tracer if env is not None else None
        self._metrics = getattr(env, "metrics", None) if env is not None else None
        # Head-of-line tracking for latency attribution: which stream
        # the round-robin turn is blocked on, since when.  Only when a
        # tracer or metrics are installed -- untraced runs skip it all.
        self._hol_track = self._tracer is not None or self._metrics is not None
        self._blocked_since: Optional[tuple[str, float]] = None

        self.sigma: list[str] = []
        self._cursors: dict[str, StreamCursor] = {}
        self._rr = 0
        self._pending: Optional[_PendingSubscription] = None
        self._deferred: list[SubscribeMsg] = []
        self._handled_requests: set[int] = set()
        self._pumping = False
        self.stats = MergerStats()

    def _emit(self, kind: str, **fields) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                kind, self.env.now, replica=self.owner, group=self.group,
                **fields,
            )

    def _note_unblocked(self) -> None:
        """The round-robin turn just produced a token after having been
        blocked: emit the head-of-line episode the latency budget blames
        ``merge_wait`` on (docs/OBSERVABILITY.md)."""
        blocked = self._blocked_since
        self._blocked_since = None
        if blocked is None:
            return
        stream, since = blocked
        waited = self.now() - since
        if waited <= 0.0:
            return
        self._emit("merge.head_of_line", stream=stream, waited=waited)
        if self._metrics is not None:
            self._metrics.histogram(self.owner, "merge_hol_wait_ms").record(
                1000.0 * waited
            )

    # -- setup -------------------------------------------------------------

    def bootstrap(
        self,
        streams: dict[str, TokenLog],
        positions: Optional[dict[str, int]] = None,
        next_stream: Optional[str] = None,
    ) -> None:
        """Install the initial subscriptions (the default stream(s)).

        ``positions`` presets the merge cursors and ``next_stream`` the
        round-robin turn -- used when a replica recovers from a
        checkpoint and resumes mid-stream.  Restoring the turn matters:
        a checkpoint can be cut mid-cycle (one cursor already advanced,
        the next stream's position still undecided), and restarting
        round-robin from first(Σ) would replay the suffix in a
        different interleaving than the pre-crash replica delivered.
        """
        if self.sigma:
            raise RuntimeError("merger already bootstrapped")
        if not streams:
            raise ValueError("need at least one initial stream")
        for name, log in streams.items():
            cursor = StreamCursor(name, log)
            if positions is not None and name in positions:
                cursor.position = positions[name]
            self._cursors[name] = cursor
            self.stats.per_stream_delivered[name] = 0
        self.sigma = sorted(streams)
        if next_stream is not None:
            self._rr = self.sigma.index(next_stream)

    @property
    def next_stream(self) -> Optional[str]:
        """The stream whose turn the round-robin is at (None pre-bootstrap)."""
        return self.sigma[self._rr] if self.sigma else None

    @property
    def subscriptions(self) -> tuple[str, ...]:
        return tuple(self.sigma)

    @property
    def pending_subscription(self) -> Optional[str]:
        return self._pending.stream if self._pending else None

    def positions(self) -> dict[str, int]:
        return {name: self._cursors[name].position for name in self._cursors}

    # -- driving -------------------------------------------------------------

    def notify(self, stream: str) -> None:
        """Tokens were appended to ``stream``'s log: resume merging if
        that can make progress.  Outside a subscription the merge only
        ever waits on the stream whose round-robin turn it is, so news
        from any other stream cannot move it."""
        if (
            self._pending is None
            and self.sigma
            and stream != self.sigma[self._rr]
        ):
            return
        self.pump()

    def pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._step():
                pass
        finally:
            self._pumping = False

    # -- the merge step ---------------------------------------------------------

    def _step(self) -> bool:
        if self._pending is not None:
            if self._pending.phase == _SCANNING:
                return self._scan_step()
            return self._align_step()
        if not self.sigma:
            return False
        stream = self.sigma[self._rr]
        cursor = self._cursors[stream]
        token = cursor.peek()
        if token is None:
            if self._hol_track and self._blocked_since is None:
                self._blocked_since = (stream, self.now())
            return False
        if self._blocked_since is not None:
            self._note_unblocked()
        if len(self.sigma) == 1:
            if token.__class__ is AppValue:
                # Sole stream, no subscription pending: one position per
                # turn would deliver the whole decided run back to back,
                # so deliver it as one.
                run = cursor.value_run()
                first = cursor.position
                cursor.position = first + len(run)
                self.stats.delivered += len(run)
                self.stats.per_stream_delivered[stream] = (
                    self.stats.per_stream_delivered.get(stream, 0) + len(run)
                )
                self.deliver(stream, first, run)
                return True
        elif isinstance(token, SkipToken) and self._skip_rounds():
            return True
        self._rr = (self._rr + 1) % len(self.sigma)
        self._consume(stream, cursor, token, deliver=True)
        return True

    def _skip_rounds(self) -> bool:
        """Every stream of Σ sits inside a skip: consume, in one step,
        as many whole round-robin rounds as the shortest of those runs
        has positions.  Such rounds deliver nothing and meet no control
        token, and each ends with the turn where it began -- so cursors
        and turn come out exactly as one position per turn leaves them.
        False (nothing consumed) when any stream is on anything else."""
        cursors = self._cursors
        rounds = 0
        for stream in self.sigma:
            run = cursors[stream].skip_run()
            if run == 0:
                return False
            if rounds == 0 or run < rounds:
                rounds = run
        for stream in self.sigma:
            cursors[stream].position += rounds
        return True

    def _consume(
        self, stream: str, cursor: StreamCursor, token: Token, deliver: bool
    ) -> None:
        """Consume one position of ``token`` at ``cursor``."""
        if isinstance(token, SkipToken):
            if len(self.sigma) == 1 and self._pending is None:
                cursor.position = cursor.token_end(token)
            else:
                cursor.position += 1
            return
        cursor.position += 1
        if isinstance(token, AppValue):
            if deliver:
                self.stats.delivered += 1
                self.stats.per_stream_delivered[stream] = (
                    self.stats.per_stream_delivered.get(stream, 0) + 1
                )
                self.deliver(stream, cursor.position - 1, (token,))
            return
        if isinstance(token, SubscribeMsg):
            self._handle_subscribe(token)
            return
        if isinstance(token, UnsubscribeMsg):
            self._handle_unsubscribe(token)
            return
        if isinstance(token, PrepareMsg):
            self._handle_prepare(token)
            return

    # -- subscribe ------------------------------------------------------------

    def _handle_subscribe(self, msg: SubscribeMsg) -> None:
        if msg.group != self.group:
            return
        if msg.stream in self.sigma or msg.request_id in self._handled_requests:
            return
        self._handled_requests.add(msg.request_id)
        if self._pending is not None:
            self._deferred.append(msg)
            return
        self._begin_subscription(msg)

    def _begin_subscription(self, msg: SubscribeMsg) -> None:
        if msg.stream not in self._cursors:
            log = self.stream_provider(msg.stream)
            self._cursors[msg.stream] = StreamCursor(msg.stream, log)
        self._pending = _PendingSubscription(
            stream=msg.stream, request_id=msg.request_id, started_at=self.now()
        )
        self._emit(
            "merge.subscribe.begin", stream=msg.stream,
            request_id=msg.request_id,
        )

    def _scan_step(self) -> bool:
        """Walk the new stream token-by-token until the subscribe request
        is found (Algorithm 1, lines 17-18).  Everything before it is
        discarded -- it predates this group's subscription."""
        pending = self._pending
        cursor = self._cursors[pending.stream]
        token = cursor.peek()
        if token is None:
            return False   # still recovering; notify() resumes the scan
        if (
            isinstance(token, SubscribeMsg)
            and token.request_id == pending.request_id
        ):
            cursor.position += 1
            # Merge point: max over the request's position in the new
            # stream (cursor now) and every subscribed stream's cursor
            # (the carrier stream consumed the request already, so its
            # cursor is its request position + 1).
            pending.merge_ptr = max(
                [cursor.position]
                + [self._cursors[s].position for s in self.sigma]
            )
            pending.phase = _ALIGNING
            return True
        # Discard: jump whole tokens (skips included) -- nothing before
        # the request is delivered to this group.
        self.stats.discarded += 1
        cursor.position = cursor.token_end(token)
        return True

    def _align_step(self) -> bool:
        """Deliver old streams up to the merge point, discard the new
        stream up to it, then commit the subscription (lines 19-28).

        Old streams advance in strict round-robin, one position per
        turn, streams already at the merge point parked -- consumption
        order must be a function of the token sequences alone, never of
        message arrival timing, or two replicas of the group (or two
        groups sharing these streams) could interleave differently.
        The new stream's backlog is discarded greedily: nothing from it
        is delivered, so its pace cannot affect the delivered order.
        """
        pending = self._pending
        merge_ptr = pending.merge_ptr

        # Greedily discard the new stream's pre-merge-point backlog.
        new_progress = False
        new_cursor = self._cursors[pending.stream]
        while new_cursor.position < merge_ptr:
            token = new_cursor.peek()
            if token is None:
                break
            if isinstance(token, SkipToken):
                new_cursor.position = min(new_cursor.token_end(token), merge_ptr)
            else:
                new_cursor.position += 1
                self.stats.discarded += 1
            new_progress = True

        # Strict round-robin over the old streams, parking aligned ones.
        old_progress = False
        behind = [s for s in self.sigma if self._cursors[s].position < merge_ptr]
        if behind:
            for _ in range(len(self.sigma)):
                stream = self.sigma[self._rr]
                cursor = self._cursors[stream]
                if cursor.position >= merge_ptr:
                    self._rr = (self._rr + 1) % len(self.sigma)
                    continue   # parked: skip its turn without consuming
                token = cursor.peek()
                if token is not None:
                    self._rr = (self._rr + 1) % len(self.sigma)
                    self._consume(stream, cursor, token, deliver=True)
                    old_progress = True
                break   # blocked (or consumed one position): end the turn

        if self._pending is not pending:
            # An unsubscription consumed during alignment may have
            # changed Σ; the loop re-evaluates on the next step.
            return True
        aligned = all(
            self._cursors[s].position >= merge_ptr for s in self.sigma
        ) and new_cursor.position >= merge_ptr
        if aligned:
            self._commit_subscription()
            return True
        return new_progress or old_progress

    def _commit_subscription(self) -> None:
        pending = self._pending
        self._pending = None
        self.sigma = sorted(self.sigma + [pending.stream])
        self.stats.merge_points[pending.request_id] = (
            pending.stream, pending.merge_ptr
        )
        self.stats.per_stream_delivered.setdefault(pending.stream, 0)
        self._rr = 0   # restart from first(Σ), Algorithm 1 line 28
        self.stats.subscriptions += 1
        self._emit(
            "merge.subscribe.commit", stream=pending.stream,
            request_id=pending.request_id, merge_point=pending.merge_ptr,
            waited=self.now() - pending.started_at,
        )
        self.on_subscription_change("subscribe", pending.stream)
        while self._deferred:
            msg = self._deferred.pop(0)
            # Σ is a set: a retry (fresh request id) deferred behind the
            # subscription that just put its stream into Σ has nothing
            # left to do.
            if msg.stream not in self.sigma:
                self._begin_subscription(msg)
                break

    # -- unsubscribe -------------------------------------------------------------

    def _handle_unsubscribe(self, msg: UnsubscribeMsg) -> None:
        if msg.group != self.group or msg.stream not in self.sigma:
            return
        index = self.sigma.index(msg.stream)
        self.sigma.remove(msg.stream)
        if not self.sigma:
            raise RuntimeError(
                f"group {self.group} unsubscribed from its last stream"
            )
        # Keep round-robin continuity: streams after the removed one
        # shift left by one.
        if index < self._rr:
            self._rr -= 1
        self._rr %= len(self.sigma)
        del self._cursors[msg.stream]
        self.stats.unsubscriptions += 1
        self._emit(
            "merge.unsubscribe", stream=msg.stream, request_id=msg.request_id
        )
        self.stream_releaser(msg.stream)
        self.on_subscription_change("unsubscribe", msg.stream)

    # -- prepare hint ---------------------------------------------------------------

    def _handle_prepare(self, msg: PrepareMsg) -> None:
        if msg.group != self.group:
            return
        if msg.stream in self._cursors or msg.stream in self.sigma:
            return
        self._emit(
            "merge.prepare", stream=msg.stream, request_id=msg.request_id
        )
        log = self.stream_provider(msg.stream)
        self._cursors[msg.stream] = StreamCursor(msg.stream, log)
