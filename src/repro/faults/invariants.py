"""Always-on safety invariant checking for in-process clusters.

:class:`InvariantSuite` taps every replica's delivery stream, one call
per delivered run (via
:meth:`repro.multicast.replica.MulticastReplica.add_run_observer`)
and, whenever :meth:`~InvariantSuite.check` is called -- on a timer
during a run and once at its end -- folds what was delivered since the
last call into a :class:`repro.spec.SafetySpec`.  The properties are
stated there and nowhere else; this module is their in-process
front-end (``repro.obs.audit`` is the trace-file one).

Each replica's :class:`DeliveryLog` holds one entry per delivered run,
the values as the merger handed them over: the tap costs one tuple per
run, whatever its length, and the log is read value by value only
where a reader needs values (the fold, ``sequence()``, the digests).

Crash-recovery semantics: a replica recovering from a checkpoint
legitimately *replays* deliveries made after that checkpoint.  The
scenario runner therefore marks the log at checkpoint time and rewinds
it on recovery -- both count delivered values, so a mark can fall
inside a run, which the rewind then splits -- and the suite reports
that to the spec as a ``recover`` event; what the replica delivered
before the crash stays remembered there, so a replay that diverges from
it is still caught.
"""

from __future__ import annotations

import hashlib
from itertools import chain, count, repeat
from operator import attrgetter, eq
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

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
    """One delivery observed at one replica, as a reader of a
    :class:`DeliveryLog` sees it (the log keeps runs, not these).  It
    starts ``(stream, position, msg_id)``, the shape
    :meth:`repro.spec.SafetySpec.fold` reads."""

    stream: str
    position: int
    msg_id: int
    payload: object
    at: float


_msg_id = attrgetter("msg_id")


def _deliveries(runs) -> Iterator[tuple]:
    """``(stream, position, msg_id)`` per value of ``runs``, built by
    ``zip`` in C -- bar a run of one value (every delivery of a merge
    over several streams), whose one triple is cheaper than the four
    iterators a ``zip`` of it takes."""
    return chain.from_iterable(
        zip(repeat(stream), count(first), map(_msg_id, values))
        if len(values) > 1 else ((stream, first, values[0].msg_id),)
        for stream, first, values, _at in runs
    )


class DeliveryLog:
    """The delivery sequence of one replica, one entry per delivered run.

    ``runs`` holds ``(stream, first, values, at)`` tuples: the replica
    delivered ``values`` -- the sequence the merger handed it, kept as
    is -- from ``stream`` at the positions from ``first`` on, at time
    ``at``.  Nothing is built per value until something reads the log
    value by value (:meth:`sequence`, :meth:`digest`, ``records``, the
    suite's fold).  ``delivered`` counts values; so do ``mark()`` (a
    snapshot of it, taken alongside each checkpoint) and
    ``rewind(mark)``, which truncates back to it -- splitting the run
    the mark falls inside -- when the replica recovers from that
    checkpoint and is about to replay the suffix.  ``folded`` is how
    many of the values the suite has folded into its spec.
    """

    def __init__(self, replica: str, group: str):
        self.replica = replica
        self.group = group
        self.runs: list[tuple] = []
        self.delivered = 0
        self.folded = 0
        self._folded_runs = 0           # runs[:_folded_runs] are folded
        self.rewinds = 0

    def append(self, stream: str, first: int, values: Sequence,
               at: float) -> None:
        self.runs.append((stream, first, values, at))
        self.delivered += len(values)

    def mark(self) -> int:
        return self.delivered

    def rewind(self, mark: int) -> None:
        if mark > self.delivered:
            raise ValueError(
                f"mark {mark} exceeds log length {self.delivered}"
            )
        runs = self.runs
        kept, index = self.delivered, len(runs)
        while kept > mark:
            index -= 1
            kept -= len(runs[index][2])
        if kept < mark:                 # the mark splits runs[index]
            stream, first, values, at = runs[index]
            runs[index] = (stream, first, values[:mark - kept], at)
            index += 1
        del runs[index:]
        self.delivered = mark
        if mark < self.folded:
            self.folded, self._folded_runs = mark, len(runs)
        self.rewinds += 1

    def unfolded(self) -> list[tuple]:
        """The runs delivered since the last call, now counted folded."""
        runs = self.runs[self._folded_runs:]
        self._folded_runs, self.folded = len(self.runs), self.delivered
        return runs

    def positions(self) -> dict[str, int]:
        """The last position delivered from each stream."""
        return {
            stream: first + len(values) - 1
            for stream, first, values, _at in self.runs
        }

    @property
    def records(self) -> list[DeliveryRecord]:
        """The log value by value (built on every read)."""
        return [
            DeliveryRecord(stream, position, value.msg_id, value.payload, at)
            for stream, first, values, at in self.runs
            for position, value in enumerate(values, first)
        ]

    def same_sequence(self, other: "DeliveryLog") -> bool:
        """``sequence() == other.sequence()``, without building either:
        the counts first, then value by value up to the first
        difference."""
        return self.delivered == other.delivered and all(
            map(eq, _deliveries(self.runs), _deliveries(other.runs))
        )

    def sequence(self) -> list[tuple[str, int, int]]:
        """The log as ``(stream, position, msg_id)`` triples."""
        return list(_deliveries(self.runs))

    def digest(self) -> str:
        """Stable hash of the delivery sequence (determinism checks)."""
        hasher = hashlib.sha256()
        for stream, first, values, _at in self.runs:
            for position, value in enumerate(values, first):
                hasher.update(f"{stream}:{position}:{value.payload!r};".encode())
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
        env = self.replicas[log.replica].env
        append = log.append

        def observe(stream, first, values):
            append(stream, first, values, env.now)

        return observe

    # -- checkpoint/recovery hooks (called by the scenario runner) ------

    def mark(self, replica: str) -> int:
        """Snapshot the log length of ``replica`` (at checkpoint time)."""
        return self.logs[replica].mark()

    def rewind(self, replica: str, mark: int) -> None:
        """Roll the log back to ``mark`` (recovery will replay from it)."""
        log = self.logs[replica]
        folded = log.folded
        log.rewind(mark)
        if mark < folded:
            self.spec.recover(replica, mark, log.positions())

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
            if log.folded < log.delivered:
                found += spec.fold(
                    name, log.group, _deliveries(log.unfolded()), at
                )
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
            ref_log = self.logs[reference]
            ref_sigma = self.replicas[reference].subscriptions
            for name in members[1:]:
                if self.replicas[name].subscriptions != ref_sigma:
                    raise self._violation(
                        f"group {group} did not converge: Σ({name})="
                        f"{self.replicas[name].subscriptions} vs "
                        f"Σ({reference})={ref_sigma}"
                    )
                log = self.logs[name]
                if not log.same_sequence(ref_log):
                    raise self._violation(
                        f"group {group} did not converge: {name} delivered "
                        f"{log.delivered} values, {reference} "
                        f"delivered {ref_log.delivered}"
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
                f"{name}={self.logs[name].delivered}"
                f"{'(rewound x%d)' % self.logs[name].rewinds if self.logs[name].rewinds else ''}"
                for name in members
            )
            sigma = self.replicas[members[0]].subscriptions
            lines.append(
                f"group {group:<12}: Σ={{{', '.join(sigma)}}} delivered {counts}"
            )
        lines.append(f"delivery digest      : {self.digest()[:16]}")
        return "\n".join(lines)
