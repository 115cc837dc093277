"""Multi-Paxos coordinator (the per-stream leader).

The coordinator owns a ballot, runs Phase 1 once over an open-ended
instance window, and then decides a pipeline of instances with single
round trips.  It batches client tokens, tops the stream up with skip
tokens every Δt so that the stream sustains the virtual rate λ
(:mod:`repro.paxos.skip`), retransmits undecided instances, and hands
decisions to the registered learners.

Dissemination modes
-------------------
* *ring* (URingPaxos): Phase 2 travels coordinator → a1 → … → an; the
  last acceptor fans the decision out to learners.  One network hop per
  acceptor, high throughput.
* *classic*: Phase 2a is fanned out to all acceptors, the coordinator
  collects a majority of 2b and fans out the decision.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..net.actor import Actor
from ..runtime.kernel import Kernel, Timer, Transport, every
from ..runtime.resources import Server
from .ballot import ballot_for, next_ballot, quorum_size
from .batching import AdaptiveBatchPolicy
from .config import StreamConfig
from .messages import (
    Decision,
    Heartbeat,
    HeartbeatAck,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Propose,
    RingAccept,
    Trim,
)
from .types import AppValue, Batch, SkipToken

__all__ = ["CoordinatorActor"]


def _batch_msg_ids(batch: Batch) -> list:
    """Application message ids carried by a batch (skips excluded)."""
    return [
        token.msg_id for token in batch.tokens if isinstance(token, AppValue)
    ]


class CoordinatorActor(Actor):
    """The leader of one Paxos stream."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        config: StreamConfig,
        coordinator_index: int = 0,
        n_coordinators: int = 1,
        standby: bool = False,
    ):
        super().__init__(env, network, config.coordinator)
        self.config = config
        self.stream = config.name
        self.coordinator_index = coordinator_index
        self.n_coordinators = n_coordinators
        self.ballot = ballot_for(coordinator_index, 0, n_coordinators)
        self.leading = False
        self.standby = standby

        self.next_instance = 0
        self.pending: deque = deque()          # tokens awaiting proposal
        self.outstanding: dict[int, dict] = {}  # instance -> tracking info
        self.decided_instances: set[int] = set()
        self.learners: list[str] = []
        self._submitted_ids: set = set()       # wire-level submission dedup

        self.positions_decided = 0             # lifetime decided positions
        self.positions_proposed = 0            # lifetime proposed positions

        cpu_needed = (
            config.cpu_cost_per_batch
            or config.cpu_cost_per_token
            or config.cpu_cost_per_byte
        )
        self.cpu: Optional[Server] = (
            Server(env, rate=1.0, name=f"{self.name}:cpu") if cpu_needed else None
        )
        self._value_gate_open = 0.0            # token-bucket time for throttle
        self._throttle_wakeup: Optional[float] = None
        self._proposing = False
        self._timers: list[Timer] = []
        # env.tracer / env.metrics are fixed for the environment's
        # lifetime; cache them so each probe is one attribute load.
        self._tracer = env.tracer
        self._metrics = env.metrics
        self._batch_scratch: list = []
        # Parallel deque of enqueue timestamps for ``pending`` (propose
        # appends, _take_batch pops -- the only two mutation sites), so
        # the batch-wait segment of the latency budget is measurable.
        # Only maintained when metrics are on: zero cost untraced.
        self._pending_since: Optional[deque] = (
            deque() if self._metrics is not None else None
        )
        # Load-adaptive batching (repro.paxos.batching): None under the
        # default fixed trigger, so the sim's pinned digests see zero
        # behaviour change.  ``_pending_oldest_at`` approximates the
        # arrival time of the oldest pending token (reset whenever the
        # queue refills from empty) and bounds how long a linger may
        # hold a partial batch open.
        self._batch_policy = (
            AdaptiveBatchPolicy.from_config(config)
            if config.adaptive_batching else None
        )
        self._pending_oldest_at = 0.0
        self._linger_wakeup_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        super().start()
        if self.standby:
            return   # answers heartbeats only, until promoted
        self._run_phase1()
        self._start_timers()

    def promote(self) -> None:
        """Promote a standby to active: claim the stream with a higher
        ballot and start the timers."""
        if not self.standby:
            raise RuntimeError(f"{self.name} is not a standby")
        self.standby = False
        self.take_over()
        self._start_timers()

    def _start_timers(self) -> None:
        env, config = self.env, self.config
        timers = self._timers
        if config.skip_enabled:
            timers.append(every(env, config.delta_t, self._skip_tick))
        timers.append(
            every(env, config.retransmit_timeout, self._retransmit_tick)
        )
        timers.append(
            every(env, 2 * config.retransmit_timeout, self._phase1_retry_tick)
        )

    def _phase1_retry_tick(self) -> bool:
        """Escalate the ballot until Phase 1 succeeds (its messages may
        have been lost, or the previous leader may have promised
        acceptors to a higher ballot)."""
        if self.leading:
            return False
        self.take_over()
        return True

    def on_heartbeat(self, msg: Heartbeat, src: str) -> None:
        self.send(src, HeartbeatAck(nonce=msg.nonce))

    def stop(self) -> None:
        super().stop()
        for timer in self._timers:
            timer.cancel()
        self._timers = []
        self.leading = False

    # -- learner management -------------------------------------------------

    def add_learner(self, learner: str) -> None:
        """Register a learner for decision dissemination.

        In ring mode the decision fan-out happens at the last acceptor;
        the deployment keeps acceptors' ``decision_targets`` in sync.
        """
        if learner not in self.learners:
            self.learners.append(learner)

    def remove_learner(self, learner: str) -> None:
        if learner in self.learners:
            self.learners.remove(learner)

    # -- phase 1 ------------------------------------------------------------

    def _run_phase1(self) -> None:
        self._phase1_promises: dict[str, Phase1b] = {}
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "coord.phase1", self.env._now, coordinator=self.name,
                stream=self.stream, ballot=self.ballot,
            )
        message = Phase1a(
            stream=self.stream, ballot=self.ballot, from_instance=self.next_instance
        )
        self.send_all(list(self.config.acceptors), message)

    def take_over(self) -> None:
        """Claim leadership with a fresh, higher ballot (failover path)."""
        self.ballot = next_ballot(self.ballot, self.coordinator_index, self.n_coordinators)
        self.leading = False
        self._run_phase1()

    def on_phase1b(self, msg: Phase1b, src: str) -> None:
        if msg.ballot != self.ballot or self.leading:
            return
        self._phase1_promises[msg.acceptor] = msg
        if len(self._phase1_promises) < quorum_size(len(self.config.acceptors)):
            return
        # Quorum reached: adopt the highest accepted value per instance.
        adopted: dict[int, tuple[int, Batch]] = {}
        for promise in self._phase1_promises.values():
            for instance, vrnd, batch in promise.accepted:
                if instance not in adopted or vrnd > adopted[instance][0]:
                    adopted[instance] = (vrnd, batch)
        self.leading = True
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "coord.lead", self.env._now, coordinator=self.name,
                stream=self.stream, ballot=self.ballot,
                adopted=len(adopted),
            )
        for instance in sorted(adopted):
            _vrnd, batch = adopted[instance]
            self.next_instance = max(self.next_instance, instance + 1)
            self._send_phase2(instance, batch)
        self._pump_proposals()

    # -- proposing ------------------------------------------------------------

    def propose(self, token) -> None:
        """Submit one token (value / control message) for ordering."""
        self._enqueue(token)
        self._pump_proposals()

    def _enqueue(self, token) -> None:
        self.positions_proposed += token.positions()
        tracer = self._tracer
        if tracer is not None:
            # msg_id / request_id are left out of the event when None.
            tracer.emit(
                "coord.propose", self.env._now,
                (self.name, self.stream, type(token).__name__,
                 getattr(token, "msg_id", None),
                 getattr(token, "request_id", None)),
            )
        if self._pending_since is not None:
            self._pending_since.append(self.env._now)
        if not self.pending:
            self._pending_oldest_at = self.env._now
        self.pending.append(token)

    def on_propose(self, msg: Propose, src: str) -> None:
        """Queue what a client submitted: one token, or the batch of
        them it submitted together -- each checked and queued on its
        own, the pipeline pumped once for all of them."""
        if msg.stream != self.stream:
            raise ValueError(
                f"{self.name} leads stream {self.stream!r}, got a proposal "
                f"for {msg.stream!r}"
            )
        # The network may duplicate a Propose (client retransmission or
        # wire-level duplication); ordering the same message twice would
        # break atomic multicast integrity, so dedupe by application id.
        token = msg.token
        tokens = token.tokens if isinstance(token, Batch) else (token,)
        submitted = self._submitted_ids
        fresh = False
        for token in tokens:
            token_id = getattr(token, "msg_id", None)
            if token_id is None:
                token_id = getattr(token, "request_id", None)
            if token_id is not None:
                key = (type(token).__name__, token_id)
                if key in submitted:
                    continue
                submitted.add(key)
            self._enqueue(token)
            fresh = True
        if fresh:
            self._pump_proposals()

    def _pump_proposals(self) -> None:
        if self._proposing:
            return
        self._proposing = True
        try:
            while (
                self.leading
                and self.pending
                and len(self.outstanding) < self.config.window
            ):
                max_tokens = None
                policy = self._batch_policy
                if policy is not None:
                    now = self.env._now
                    depth = len(self.pending)
                    policy.observe(depth, now)
                    max_tokens = policy.target_tokens()
                # Burst credit must track the adaptive target: capping
                # credit at the static batch floor would clamp every
                # batch to ``batch_max_tokens`` values and pace the
                # datapath on sub-millisecond throttle wakeups that a
                # real event loop delivers late.
                if not self._admit_by_throttle(max_tokens):
                    break
                if policy is not None:
                    depth = len(self.pending)
                    if (
                        depth < max_tokens
                        and isinstance(self.pending[0], AppValue)
                    ):
                        # Partial batch: hold it open briefly so
                        # in-flight arrivals can join, bounded by the
                        # oldest pending token's linger deadline.
                        # Control/skip tokens never linger -- their
                        # pacing is the protocol's, not the policy's.
                        linger = policy.linger_s()
                        deadline = self._pending_oldest_at + linger
                        if linger > 0.0 and now < deadline:
                            self._schedule_linger(deadline, now)
                            break
                batch = self._take_batch(max_tokens)
                instance = self.next_instance
                self.next_instance += 1
                if self.cpu is not None:
                    cost = (
                        self.config.cpu_cost_per_batch
                        + self.config.cpu_cost_per_token * len(batch.tokens)
                        + self.config.cpu_cost_per_byte * batch.payload_bytes
                    )
                    self.outstanding[instance] = {
                        "batch": batch, "sent_at": None, "pending_cpu": True,
                    }
                    done = self.cpu.request(cost)
                    done.callbacks.append(
                        lambda _e, i=instance, b=batch: self._after_cpu(i, b)
                    )
                else:
                    self.outstanding[instance] = {
                        "batch": batch, "sent_at": self.env._now, "pending_cpu": False,
                    }
                    self._send_phase2(instance, batch)
        finally:
            self._proposing = False

    @property
    def effective_value_limit(self) -> Optional[float]:
        """Admission cap on application values, in values/second.

        λ is the *maximum* virtual throughput of a stream: exceeding it
        would let this stream's positions outrun its siblings' and
        unbalance the deterministic merge, so when skips are enabled λ
        also caps admission.  An explicit ``value_rate_limit`` (the 30%
        throttle of §VII-C) lowers the cap further.
        """
        config = self.config
        limit = config.value_rate_limit
        if config.skip_enabled:
            lam = float(config.lam)
            if limit is None or limit > lam:
                return lam
        return limit

    def _admit_by_throttle(self, burst_tokens: Optional[int] = None) -> bool:
        """Token-bucket throttle on application values (λ and the 30%
        cap of the vertical-scalability experiment).  Control/skip
        tokens are never throttled.

        The bucket holds up to one batch of burst credit so that
        batching still works under a throttle; admitted values advance
        the gate inside :meth:`_take_batch`.
        ``burst_tokens`` widens the credit cap to the adaptive batch
        target when adaptive batching is active.
        """
        limit = self.effective_value_limit
        if limit is None or not isinstance(self.pending[0], AppValue):
            return True
        now = self.env._now
        # Idle time accrues credit, capped at one full batch.
        if burst_tokens is None:
            burst_tokens = self.config.batch_max_tokens
        burst = burst_tokens / limit
        if self._value_gate_open < now - burst:
            self._value_gate_open = now - burst
        if self._value_gate_open > now:
            # Not yet admitted: re-pump when the gate opens.  At most
            # one wakeup is kept scheduled -- pump is re-entered from
            # every propose/decide as well, so extra wakeups would
            # accumulate quadratically.
            gate = self._value_gate_open
            if self._throttle_wakeup is None or self._throttle_wakeup > gate:
                self._throttle_wakeup = gate
                self.env.call_later(gate - now, self._throttle_wakeup_fired)
            return False
        return True

    def _throttle_wakeup_fired(self) -> None:
        self._throttle_wakeup = None
        self._pump_proposals()

    def _schedule_linger(self, deadline: float, now: float) -> None:
        """Keep at most one linger wakeup scheduled (pump is re-entered
        from every propose/decide too, mirroring the throttle wakeup)."""
        if self._linger_wakeup_at is None or self._linger_wakeup_at > deadline:
            self._linger_wakeup_at = deadline
            self.env.call_later(deadline - now, self._linger_fired)

    def _linger_fired(self) -> None:
        self._linger_wakeup_at = None
        self._pump_proposals()

    def _take_batch(self, max_tokens: Optional[int] = None) -> Batch:
        """Cut the next batch off ``pending``: at most ``max_tokens``
        tokens and ``batch_max_bytes``, its values charged to the λ
        bucket.  Under the fixed trigger each value is charged as it is
        cut, and the batch ends where the credit does.  Under adaptive
        batching the batch the policy sized leaves whole once the gate
        is open, charged ``values / λ`` at once: the gate then stays
        shut for that long, so the rate stays ≤ λ and a burst is bounded
        by two batch targets (docs/PROTOCOL.md §3)."""
        # Reused scratch list: ``Batch`` copies into a tuple anyway.
        tokens = self._batch_scratch
        tokens.clear()
        nbytes = 0
        limit = self.effective_value_limit
        now = self.env._now
        pending = self.pending
        config = self.config
        if max_tokens is None:
            max_tokens = config.batch_max_tokens
        max_bytes = config.batch_max_bytes
        per_value = self._batch_policy is None
        values = 0
        while pending and len(tokens) < max_tokens:
            token = pending[0]
            size = getattr(token, "size", 0)
            if tokens and nbytes + size > max_bytes:
                break
            if limit is not None and isinstance(token, AppValue):
                if (per_value or not values) and self._value_gate_open > now:
                    break   # bucket drained: the rest waits for credit
                if per_value:
                    self._value_gate_open = max(
                        self._value_gate_open, now - max_tokens / limit
                    ) + 1.0 / limit
                values += 1
            tokens.append(pending.popleft())
            nbytes += size
        if values and not per_value:
            self._value_gate_open = max(
                self._value_gate_open, now - max_tokens / limit
            ) + values / limit
        since = self._pending_since
        if since is not None and tokens:
            first = since[0] if since else now
            for _ in range(min(len(tokens), len(since))):
                since.popleft()
            if any(isinstance(t, AppValue) for t in tokens):
                self._metrics.histogram(self.name, "batch_wait_ms").record(
                    1000.0 * (now - first)
                )
        return Batch(tokens=tuple(tokens))

    def _after_cpu(self, instance: int, batch: Batch) -> None:
        info = self.outstanding.get(instance)
        if info is None:
            return
        info["pending_cpu"] = False
        info["sent_at"] = self.env._now
        self._send_phase2(instance, batch)
        self._pump_proposals()

    def _send_phase2(self, instance: int, batch: Batch) -> None:
        if instance not in self.outstanding:
            self.outstanding[instance] = {
                "batch": batch, "sent_at": self.env._now, "pending_cpu": False,
            }
        self.outstanding[instance]["acks"] = set()
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "coord.phase2", self.env._now, coordinator=self.name,
                stream=self.stream, instance=instance,
                msg_ids=_batch_msg_ids(batch), positions=batch.positions(),
            )
        if self.config.ring_mode:
            message = RingAccept(
                stream=self.stream,
                ballot=self.ballot,
                instance=instance,
                batch=batch,
                accepted_by=0,
            )
            self.send(self.config.acceptors[0], message)
        else:
            message = Phase2a(
                stream=self.stream, ballot=self.ballot, instance=instance, batch=batch
            )
            self.send_all(list(self.config.acceptors), message)

    # -- deciding ---------------------------------------------------------------

    def on_phase2b(self, msg: Phase2b, src: str) -> None:
        if msg.ballot != self.ballot:
            return
        info = self.outstanding.get(msg.instance)
        if info is None:
            return
        info.setdefault("acks", set()).add(msg.acceptor)
        if len(info["acks"]) >= quorum_size(len(self.config.acceptors)):
            batch = info["batch"]
            decision = Decision(stream=self.stream, instance=msg.instance, batch=batch)
            targets = list(self.learners) + list(self.config.acceptors)
            self.send_all(targets, decision)
            # msg.acceptor's 2b is the one that closed the quorum: the
            # straggler the latency budget blames quorum_wait on.
            self._mark_decided(msg.instance, batch, closed_by=msg.acceptor)

    def on_decision(self, msg: Decision, src: str) -> None:
        """Ring mode: the last acceptor's decision comes back to us."""
        info = self.outstanding.get(msg.instance)
        batch = info["batch"] if info else msg.batch
        self._mark_decided(msg.instance, batch, closed_by=src)

    def _mark_decided(
        self, instance: int, batch: Batch, closed_by: Optional[str] = None
    ) -> None:
        if instance in self.decided_instances:
            return
        self.decided_instances.add(instance)
        info = self.outstanding.pop(instance, None)
        self.positions_decided += batch.positions()
        metrics = self._metrics
        if metrics is not None and not batch.is_pure_skip():
            # Per-stream *application* progress: skips are pacing, not
            # load, so the elasticity signal plane counts value tokens
            # only (``positions_decided`` grows at ~λ regardless of
            # load and cannot tell a hot stream from an idle one).
            values = sum(
                1 for t in batch.tokens if not isinstance(t, SkipToken)
            )
            metrics.counter(self.name, "values_decided").record(values)
            sent_at = info.get("sent_at") if info is not None else None
            if sent_at is not None:
                metrics.histogram(self.name, "decide_latency_ms").record(
                    1000.0 * (self.env._now - sent_at)
                )
        tracer = self._tracer
        if tracer is not None:
            fields = {
                "coordinator": self.name,
                "stream": self.stream,
                "instance": instance,
                "positions": batch.positions(),
            }
            if closed_by is not None:
                fields["closed_by"] = closed_by
            tracer.emit("coord.decide", self.env._now, **fields)
        self._pump_proposals()

    # -- skips ---------------------------------------------------------------

    def _skip_tick(self) -> None:
        """Top the stream up to the virtual rate λ every Δt.

        The target is *absolute*: position λ·now.  Pacing every stream
        against the same virtual position clock (instead of a relative
        λ·Δt increment per interval) keeps all streams of a deployment
        within ~λ·Δt positions of each other no matter when they were
        created -- a stream provisioned mid-run tops itself up to the
        ensemble's position in its first tick, and transient offsets
        heal instead of persisting as permanent merge latency.
        """
        if not self.leading:
            return
        deficit = int(self.config.lam * self.env._now) - self.positions_proposed
        if deficit > 0:
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    "coord.skip", self.env._now, coordinator=self.name,
                    stream=self.stream, count=deficit,
                )
            metrics = self._metrics
            if metrics is not None:
                metrics.counter(self.name, "skip_positions").record(deficit)
            self.propose(SkipToken(count=deficit))

    # -- retransmission ---------------------------------------------------------

    def _retransmit_tick(self) -> None:
        if not self.leading:
            return
        deadline = self.env._now - self.config.retransmit_timeout
        for instance, info in sorted(self.outstanding.items()):
            sent_at = info.get("sent_at")
            if sent_at is not None and sent_at <= deadline:
                tracer = self._tracer
                if tracer is not None:
                    tracer.emit(
                        "coord.retransmit", self.env._now,
                        coordinator=self.name, stream=self.stream,
                        instance=instance,
                    )
                metrics = self._metrics
                if metrics is not None:
                    metrics.counter(self.name, "retransmits").record()
                self._send_phase2(instance, info["batch"])
                info["sent_at"] = self.env._now

    # -- log management -----------------------------------------------------------

    def trim(self, below: int) -> None:
        """Ask all acceptors to trim their logs below ``below``."""
        message = Trim(stream=self.stream, below=below)
        self.send_all(list(self.config.acceptors), message)
