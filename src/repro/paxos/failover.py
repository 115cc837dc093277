"""Coordinator failure detection and automatic failover.

The system model (§II) is crash-recovery with partial synchrony: before
GST no timing assumption holds, so a failure detector can only be
unreliable.  :class:`FailoverMonitor` implements the standard
heartbeat detector: it probes the active coordinator every ``interval``
and, after ``misses`` consecutive unanswered probes, promotes the
standby coordinator, which claims the stream with a higher ballot
(Paxos keeps this safe even when the suspicion was wrong -- the two
coordinators merely duel over ballots, they can never decide
conflicting values; see tests/properties/test_paxos_safety.py).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..net.actor import Actor
from ..runtime.kernel import Kernel, Timer, Transport, every
from .coordinator import CoordinatorActor
from .messages import Heartbeat, HeartbeatAck

__all__ = ["FailoverMonitor", "RingWatchdog"]

_nonces = itertools.count(1)


class FailoverMonitor(Actor):
    """Heartbeats the active coordinator; promotes the standby on silence."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        active: str,
        standby: CoordinatorActor,
        interval: float = 0.1,
        misses: int = 3,
        on_failover: Optional[Callable[[], None]] = None,
    ):
        super().__init__(env, network, name)
        if misses < 1:
            raise ValueError("misses must be >= 1")
        self.active = active
        self.standby = standby
        self.interval = interval
        self.misses = misses
        self.on_failover = on_failover
        self.failed_over = False
        self.failover_at: Optional[float] = None
        self._outstanding: Optional[int] = None
        self._missed = 0
        self._timer: Optional[Timer] = None
        self._probed = False     # a heartbeat of this timer awaits judging

    def start(self) -> None:
        super().start()
        self._probed = False
        self._timer = every(self.env, self.interval, self._probe, first=0.0)

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None

    def _probe(self) -> bool:
        """Judge the last heartbeat, then send the next one."""
        if self._probed:
            if self._outstanding is None:
                self._missed = 0      # the ack arrived in time
            else:
                self._missed += 1
                if self._missed >= self.misses:
                    self._fail_over()
                    return False
        if self.failed_over:
            return False
        self._probed = True
        nonce = next(_nonces)
        self._outstanding = nonce
        self.send(self.active, Heartbeat(nonce=nonce))
        return True

    def on_heartbeat_ack(self, msg: HeartbeatAck, src: str) -> None:
        if msg.nonce == self._outstanding:
            self._outstanding = None

    def _fail_over(self) -> None:
        self.failed_over = True
        self.failover_at = self.env.now
        self.standby.promote()
        if self.on_failover is not None:
            self.on_failover()


class RingWatchdog(Actor):
    """Heartbeats every acceptor of a ring; reports the ones that go
    silent so the deployment can reform the ring around them (the role
    ZooKeeper's ephemeral ring nodes play for URingPaxos)."""

    def __init__(
        self,
        env: Kernel,
        network: Transport,
        name: str,
        targets: list[str],
        on_suspect: Callable[[str], None],
        interval: float = 0.1,
        misses: int = 3,
    ):
        super().__init__(env, network, name)
        if misses < 1:
            raise ValueError("misses must be >= 1")
        self.targets = list(targets)
        self.on_suspect = on_suspect
        self.interval = interval
        self.misses = misses
        self.suspected: set[str] = set()
        self._outstanding: dict[int, str] = {}
        self._missed: dict[str, int] = {t: 0 for t in targets}
        self._timer: Optional[Timer] = None
        self._probed = False     # heartbeats of this timer await judging

    def start(self) -> None:
        super().start()
        self._probed = False
        self._timer = every(self.env, self.interval, self._probe, first=0.0)

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None

    def forget(self, target: str) -> None:
        """Stop probing a removed ring member."""
        if target in self.targets:
            self.targets.remove(target)
        self._missed.pop(target, None)

    def _probe(self) -> None:
        """Judge the last round of heartbeats, then send the next."""
        if self._probed:
            for _nonce, target in list(self._outstanding.items()):
                if target not in self._missed:
                    continue
                self._missed[target] += 1
                if self._missed[target] >= self.misses:
                    self.suspected.add(target)
                    self.on_suspect(target)
        self._probed = True
        self._outstanding.clear()
        for target in self.targets:
            if target in self.suspected:
                continue
            nonce = next(_nonces)
            self._outstanding[nonce] = target
            self.send(target, Heartbeat(nonce=nonce))

    def on_heartbeat_ack(self, msg: HeartbeatAck, src: str) -> None:
        target = self._outstanding.pop(msg.nonce, None)
        if target is not None and target in self._missed:
            self._missed[target] = 0
