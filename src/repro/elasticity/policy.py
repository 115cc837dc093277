"""Declarative elasticity policies and the engine that arbitrates them.

A *rule* is a pure, stateless predicate over one
:class:`~repro.elasticity.signals.SignalSnapshot`: it either returns
``None`` (no breach) or a :class:`Proposal` naming the reconfiguration
kind it wants -- ``subscribe`` a new stream, ``split`` load off a hot
stream, or ``replace`` a slow acceptor ring.  Rules are deliberately
monotone in their driving signal (more load never un-breaches a
threshold), which the property tests in ``tests/elasticity`` check.

The :class:`PolicyEngine` owns all the state: per-rule *sustain*
streaks (a rule must breach on N consecutive observations before it
may fire -- the hysteresis that keeps a noisy signal from flapping),
per-kind *cooldown* windows (after a reconfiguration of some kind, no
further one of that kind until the cluster had time to absorb it), an
in-flight guard (nothing fires while a subscription is pending), a
stream-count cap, and a *dry-run* mode that records every decision as
advisory without ever releasing an action.  Every evaluation outcome
lands in :attr:`PolicyEngine.timeline`, which is the reproducible
decision record the acceptance harness asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .signals import SignalSnapshot

__all__ = [
    "DecideRateCeiling",
    "DecisionRecord",
    "PolicyEngine",
    "Proposal",
    "SlowStreamSlo",
    "StreamSkew",
]

ACTION_KINDS = ("subscribe", "split", "replace")


@dataclass(frozen=True)
class Proposal:
    """One rule's verdict: a reconfiguration it wants executed."""

    kind: str                       # one of ACTION_KINDS
    rule: str                       # the proposing rule's name
    reason: str                     # human-readable breach description
    severity: float = 1.0           # signal / threshold ratio (>= 1)
    stream: Optional[str] = None    # target stream (split / replace)

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")


@dataclass(frozen=True)
class DecideRateCeiling:
    """Scale out when per-stream decide throughput exceeds a ceiling.

    The paper's vertical-scalability lever (§VII-A): when the average
    decided values/s per subscribed stream crosses ``ceiling``, ask for
    one more stream.  Monotone in the total decide rate.
    """

    ceiling: float
    name: str = "decide-rate-ceiling"

    def __post_init__(self) -> None:
        if self.ceiling <= 0:
            raise ValueError("ceiling must be positive")

    def evaluate(self, snapshot: SignalSnapshot) -> Optional[Proposal]:
        if not snapshot.streams:
            return None
        per_stream = snapshot.per_stream_rate
        if per_stream <= self.ceiling:
            return None
        return Proposal(
            kind="subscribe",
            rule=self.name,
            reason=(
                f"per-stream decide rate {per_stream:.0f}/s exceeds "
                f"ceiling {self.ceiling:g}/s"
            ),
            severity=per_stream / self.ceiling,
        )


@dataclass(frozen=True)
class StreamSkew:
    """Split load off a stream carrying too large a share of the total.

    The paper's Figure-4 move: when one stream's share of the decide
    rate exceeds ``max_share`` (and the cluster is actually loaded --
    ``min_total_rate`` guards idle noise), propose splitting the hot
    key range onto another stream.  Monotone in the hot stream's rate,
    all else fixed.
    """

    max_share: float = 0.6
    min_total_rate: float = 20.0
    name: str = "stream-skew"

    def evaluate(self, snapshot: SignalSnapshot) -> Optional[Proposal]:
        if len(snapshot.streams) < 2:
            return None
        total = snapshot.total_rate
        if total < self.min_total_rate:
            return None
        stream, share = snapshot.hottest_stream()
        if stream is None or share <= self.max_share:
            return None
        return Proposal(
            kind="split",
            rule=self.name,
            reason=(
                f"stream {stream} carries {100 * share:.0f}% of "
                f"{total:.0f}/s (max {100 * self.max_share:.0f}%)"
            ),
            severity=share / self.max_share,
            stream=stream,
        )


@dataclass(frozen=True)
class SlowStreamSlo:
    """Replace the acceptor ring of a stream whose decides went slow.

    The paper's Figure-5 move: when one stream's p99 propose->decide
    latency exceeds ``stall_ms`` while some peer stays under
    ``healthy_ms`` (so the slowness is the ring's, not global), propose
    retiring that stream for a fresh one.  Monotone in the slow
    stream's decide latency.
    """

    stall_ms: float = 50.0
    healthy_ms: float = 25.0
    name: str = "slow-stream-slo"

    def evaluate(self, snapshot: SignalSnapshot) -> Optional[Proposal]:
        if len(snapshot.streams) < 2:
            return None
        latencies = {
            s: snapshot.decide_p99_ms[s]
            for s in snapshot.streams
            if s in snapshot.decide_p99_ms
        }
        if len(latencies) < 2:
            return None
        slow = max(latencies, key=latencies.get)
        if latencies[slow] <= self.stall_ms:
            return None
        if min(v for s, v in latencies.items() if s != slow) > self.healthy_ms:
            return None          # everyone is slow: not a ring problem
        return Proposal(
            kind="replace",
            rule=self.name,
            reason=(
                f"stream {slow} decide p99 {latencies[slow]:.0f} ms "
                f"exceeds stall threshold {self.stall_ms:g} ms"
            ),
            severity=latencies[slow] / self.stall_ms,
            stream=slow,
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One evaluation outcome on the engine's timeline.

    ``status`` is ``"enforce"`` (action released), ``"advisory"``
    (dry-run: would have fired), ``"sustain"`` (breach observed but the
    streak is still building), ``"cooldown"`` (suppressed inside the
    kind's cooldown window), ``"blocked"`` (a subscription is already
    in flight) or ``"capped"`` (stream-count cap reached).
    """

    at: float
    status: str
    proposal: Proposal


class PolicyEngine:
    """Arbitrates rule proposals into at most occasional actions."""

    def __init__(
        self,
        rules: Sequence,
        sustain: int = 2,
        cooldown: float = 2.0,
        dry_run: bool = False,
        max_streams: Optional[int] = None,
    ):
        if sustain < 1:
            raise ValueError("sustain must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.rules = tuple(rules)
        self.sustain = sustain
        self.cooldown = cooldown
        self.dry_run = dry_run
        self.max_streams = max_streams
        self.timeline: list[DecisionRecord] = []
        self._streaks: dict[str, int] = {}
        self._last_fired: dict[str, float] = {}

    def _record(self, at: float, status: str, proposal: Proposal) -> None:
        self.timeline.append(
            DecisionRecord(at=at, status=status, proposal=proposal)
        )

    def observe(self, snapshot: SignalSnapshot) -> list[Proposal]:
        """Evaluate every rule against ``snapshot``.

        Returns the proposals cleared for execution this tick -- always
        empty in dry-run mode, where cleared proposals are recorded as
        ``advisory`` instead.
        """
        released: list[Proposal] = []
        for rule in self.rules:
            proposal = rule.evaluate(snapshot)
            if proposal is None:
                self._streaks[rule.name] = 0
                continue
            streak = self._streaks.get(rule.name, 0) + 1
            self._streaks[rule.name] = streak
            if streak < self.sustain:
                self._record(snapshot.at, "sustain", proposal)
                continue
            last = self._last_fired.get(proposal.kind)
            if (
                last is not None
                and snapshot.at - last < self.cooldown
            ):
                self._record(snapshot.at, "cooldown", proposal)
                continue
            if snapshot.pending_subscription:
                self._record(snapshot.at, "blocked", proposal)
                continue
            if (
                self.max_streams is not None
                and proposal.kind in ("subscribe", "split")
                and len(snapshot.provisioned) >= self.max_streams
            ):
                self._record(snapshot.at, "capped", proposal)
                continue
            self._last_fired[proposal.kind] = snapshot.at
            self._streaks[rule.name] = 0
            if self.dry_run:
                self._record(snapshot.at, "advisory", proposal)
            else:
                self._record(snapshot.at, "enforce", proposal)
                released.append(proposal)
        return released

    def fired(self) -> list[DecisionRecord]:
        """The records that cleared arbitration (enforce + advisory)."""
        return [
            record for record in self.timeline
            if record.status in ("enforce", "advisory")
        ]
