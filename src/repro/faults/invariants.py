"""Always-on safety invariant checking for in-process clusters.

:class:`InvariantSuite` taps every replica's delivery stream, one call
per delivered run (via
:meth:`repro.multicast.replica.MulticastReplica.add_run_observer`)
and, whenever :meth:`~InvariantSuite.check` is called -- on a timer
during a run and once at its end -- folds what was delivered since the
last call into a :class:`repro.spec.SafetySpec`.  The properties are
stated there and nowhere else; this module is their in-process
front-end (``repro.obs.audit`` is the trace-file one).

Crash-recovery semantics: a replica recovering from a checkpoint
legitimately *replays* deliveries made after that checkpoint.  The
scenario runner therefore marks the log at checkpoint time and rewinds
it on recovery, which the suite reports to the spec as a ``recover``
event; what the replica delivered before the crash stays remembered
there, so a replay that diverges from it is still caught.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, NamedTuple, Optional

from ..multicast.replica import MulticastReplica
from ..spec import PROPERTIES, SafetySpec, Violation

__all__ = [
    "DeliveryLog",
    "DeliveryRecord",
    "InvariantSuite",
    "InvariantViolation",
]


class InvariantViolation(AssertionError):
    """A safety property of the protocol was violated.

    ``msg_id`` carries the violating message (or request) id when the
    broken property points at one -- the flight recorder uses it to
    extract that message's causal history from the dump.
    ``violations`` is everything the raising check proved; the
    exception's message is the first one's.
    """

    msg_id: Optional[int] = None
    violations: tuple[Violation, ...] = ()


class DeliveryRecord(NamedTuple):
    """One delivery observed at one replica.

    A ``NamedTuple`` like :class:`repro.runtime.kernel.Envelope`: one is
    built per delivery per replica, and tuple construction happens in C
    while the frozen dataclass protocol pays a guarded
    ``object.__setattr__`` per field.  It starts ``(stream, position,
    msg_id)``, the shape :meth:`repro.spec.SafetySpec.fold` reads.
    """

    stream: str
    position: int
    msg_id: int
    payload: object
    at: float


class DeliveryLog:
    """The delivery sequence of one replica, rewindable at recovery.

    ``records`` is the replica's current canonical delivery sequence.
    ``mark()`` snapshots its length (taken alongside each checkpoint);
    ``rewind(mark)`` truncates back to it when the replica recovers from
    that checkpoint and is about to replay the suffix.  ``folded`` is
    how many of the records the suite has folded into its spec.
    """

    def __init__(self, replica: str, group: str):
        self.replica = replica
        self.group = group
        self.records: list[DeliveryRecord] = []
        self.folded = 0
        self.rewinds = 0

    def append(self, record: DeliveryRecord) -> None:
        self.records.append(record)

    def mark(self) -> int:
        return len(self.records)

    def rewind(self, mark: int) -> None:
        if mark > len(self.records):
            raise ValueError(
                f"mark {mark} exceeds log length {len(self.records)}"
            )
        del self.records[mark:]
        self.rewinds += 1

    def sequence(self) -> list[tuple[str, int, int]]:
        """The log as ``(stream, position, msg_id)`` triples."""
        return [(r.stream, r.position, r.msg_id) for r in self.records]

    def digest(self) -> str:
        """Stable hash of the delivery sequence (determinism checks)."""
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(
                f"{record.stream}:{record.position}:{record.payload!r};".encode()
            )
        return hasher.hexdigest()


class InvariantSuite:
    """Attaches to a cluster's replicas and checks all invariants.

    ``check()`` raises :class:`InvariantViolation` on the first broken
    property.  It costs what was delivered since the previous call, so
    it runs periodically (the scenario runner and the deploy worker call
    it on a timer: a violation surfaces when it happens, not at the end
    of the run).  Memory: the delivery logs, kept whole for
    ``sequence()`` and the digests, plus the spec's maps over them.
    """

    def __init__(self, replicas: Mapping[str, MulticastReplica]):
        self.replicas = dict(replicas)
        self.logs: dict[str, DeliveryLog] = {}
        self.groups: dict[str, list[str]] = {}
        self.spec = SafetySpec()
        self.checks_run = 0
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            log = DeliveryLog(name, replica.group)
            self.logs[name] = log
            self.groups.setdefault(replica.group, []).append(name)
            replica.add_run_observer(self._observer(log))

    def _observer(self, log: DeliveryLog):
        replica = self.replicas[log.replica]
        records = log.records       # rewound in place, never replaced

        def observe(stream, first, values):
            at = replica.env.now
            records.extend([
                DeliveryRecord(stream, position, value.msg_id, value.payload, at)
                for position, value in enumerate(values, first)
            ])

        return observe

    # -- checkpoint/recovery hooks (called by the scenario runner) ------

    def mark(self, replica: str) -> int:
        """Snapshot the log length of ``replica`` (at checkpoint time)."""
        return self.logs[replica].mark()

    def rewind(self, replica: str, mark: int) -> None:
        """Roll the log back to ``mark`` (recovery will replay from it)."""
        log = self.logs[replica]
        log.rewind(mark)
        if mark < log.folded:
            log.folded = mark
            self.spec.recover(
                replica, mark, {r.stream: r.position for r in log.records}
            )

    # -- the invariants -------------------------------------------------

    def _violation(
        self, message: str, msg_id: Optional[int] = None
    ) -> InvariantViolation:
        """Build the exception and report it to the tracer (if any).

        The ``invariant.violation`` event lands in every attached sink --
        in particular the flight recorder, right before the scenario
        runner dumps it -- so the dump is self-describing.
        """
        for replica in self.replicas.values():
            env = replica.env
            tracer = getattr(env, "tracer", None)
            if tracer is not None:
                fields = {"message": message}
                if msg_id is not None:
                    fields["msg_id"] = msg_id
                tracer.emit("invariant.violation", env.now, **fields)
            break
        exc = InvariantViolation(message)
        exc.msg_id = msg_id
        return exc

    def check(self) -> None:
        """Fold everything new into the spec; raise what that proves."""
        self.checks_run += 1
        spec = self.spec
        found: list[Violation] = []
        at = 0.0
        for name, log in self.logs.items():
            replica = self.replicas[name]
            at = replica.env.now
            records = log.records
            if log.folded < len(records):
                found += spec.fold(
                    name, log.group, records[log.folded:], at
                )
                log.folded = len(records)
            # The current merger incarnation's commits; the spec keeps
            # the first report of each across recoveries.
            for request_id, point in replica.merger.stats.merge_points.items():
                found += spec.merge_point(
                    name, log.group, request_id, point, at
                )
        found += spec.check_acyclic(at)
        if found:
            exc = self._violation(found[0].message, found[0].msg_id)
            exc.violations = tuple(found)
            raise exc

    # -- convergence (liveness; checked only at the end of a run) -------

    def assert_converged(self) -> None:
        """All replicas of each group hold identical delivery sequences
        and subscription sets (valid once the run's quiet tail has let
        recovery finish; not a safety invariant)."""
        for group, members in self.groups.items():
            reference = members[0]
            ref_seq = self.logs[reference].sequence()
            ref_sigma = self.replicas[reference].subscriptions
            for name in members[1:]:
                if self.replicas[name].subscriptions != ref_sigma:
                    raise self._violation(
                        f"group {group} did not converge: Σ({name})="
                        f"{self.replicas[name].subscriptions} vs "
                        f"Σ({reference})={ref_sigma}"
                    )
                if self.logs[name].sequence() != ref_seq:
                    raise self._violation(
                        f"group {group} did not converge: {name} delivered "
                        f"{len(self.logs[name].records)} values, {reference} "
                        f"delivered {len(ref_seq)}"
                    )

    # -- reporting ------------------------------------------------------

    def digest(self) -> str:
        """Stable hash over every replica's delivery log."""
        hasher = hashlib.sha256()
        for name in sorted(self.logs):
            hasher.update(name.encode())
            hasher.update(self.logs[name].digest().encode())
        return hasher.hexdigest()

    def report(self) -> str:
        lines = [
            f"invariant checks run : {self.checks_run}",
            f"invariants           : {', '.join(PROPERTIES)} -- all OK",
        ]
        for group in sorted(self.groups):
            members = self.groups[group]
            counts = ", ".join(
                f"{name}={len(self.logs[name].records)}"
                f"{'(rewound x%d)' % self.logs[name].rewinds if self.logs[name].rewinds else ''}"
                for name in members
            )
            sigma = self.replicas[members[0]].subscriptions
            lines.append(
                f"group {group:<12}: Σ={{{', '.join(sigma)}}} delivered {counts}"
            )
        lines.append(f"delivery digest      : {self.digest()[:16]}")
        return "\n".join(lines)
