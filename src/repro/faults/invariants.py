"""Always-on safety invariant checking for in-process clusters.

:class:`InvariantSuite` taps every replica's delivery stream, one call
per delivered run (via
:meth:`repro.multicast.replica.MulticastReplica.add_run_observer`)
and, whenever :meth:`~InvariantSuite.check` is called -- on a timer
during a run and once at its end -- folds what was delivered since the
last call into a :class:`repro.spec.SafetySpec`.  The properties are
stated there and nowhere else; this module is their in-process
front-end (``repro.obs.audit`` is the trace-file one).

Each replica's :class:`DeliveryLog` keeps the identities of what it
delivered, in columns: a few numbers per run and a ``msg_id`` per
value, never the values, so a payload lives no longer than its
delivery.  The log is read value by value only where a reader needs
that (the fold, ``sequence()``, ``records``).  A digest over the
payloads is the simulator runner's (:mod:`repro.faults.runner`).

Crash-recovery semantics: a replica recovering from a checkpoint
legitimately *replays* deliveries made after that checkpoint.  The
scenario runner therefore marks the log at checkpoint time and rewinds
it on recovery -- both count delivered values, so a mark can fall
inside a run, which the rewind then splits -- and the suite reports
that to the spec as a ``recover`` event; what the replica delivered
before the crash stays remembered there, so a replay that diverges from
it is still caught.  The spec is bounded (``_SPEC_BOUND``); a rewind
whose replay would start below its compaction floor raises
:class:`repro.spec.ReplayBelowFloor` rather than check less.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import add, attrgetter, eq
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from ..multicast.replica import MulticastReplica
from ..spec import PROPERTIES, SafetySpec, Violation

__all__ = [
    "DeliveryLog",
    "DeliveryRecord",
    "InvariantSuite",
    "InvariantViolation",
]

# Entries the suite's spec keeps per stream/group before it retires the
# oldest (see repro.spec).  No seed of `faults run chaos --seeds 1000`
# reaches it: the largest canon there is under 1,000 deliveries.
_SPEC_BOUND = 10_000


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
    :class:`DeliveryLog` sees it (the log keeps columns, not these).
    It starts ``(stream, position, msg_id)``, the shape
    :meth:`repro.spec.SafetySpec.fold` reads."""

    stream: str
    position: int
    msg_id: int
    at: float


_msg_id = attrgetter("msg_id")


class DeliveryLog:
    """The delivery sequence of one replica, as columns of identities.

    Run ``i`` -- ``lengths[i]`` values the merger handed over at once --
    came from stream ``names[codes[i]]`` at the positions from
    ``firsts[i]`` on, at time ``ats[i]``; ``msg_ids`` holds every
    delivered value's id in order (an ``array('q')``, widened to a list
    the first time an id is not a 64-bit int).  No object is kept per
    run or per value, and no value at all.  ``delivered`` counts values;
    so do ``mark()`` (a snapshot of it, taken alongside each checkpoint)
    and ``rewind(mark)``, which truncates back to it -- splitting the
    run the mark falls inside -- when the replica recovers from that
    checkpoint and is about to replay the suffix.  ``folded`` is how
    many of the values the suite has folded into its spec.
    """

    def __init__(self, replica: str, group: str):
        self.replica = replica
        self.group = group
        self.names: list[str] = []          # stream code -> name
        self._codes: dict[str, int] = {}
        self.codes = array("H")
        self.firsts = array("q")
        self.lengths = array("I")
        self.ats = array("d")
        self.msg_ids = array("q")
        self._add_ids = self.msg_ids.fromlist
        self.folded = 0
        self._folded_runs = 0           # runs below this index are folded
        self.rewinds = 0

    @property
    def delivered(self) -> int:
        return len(self.msg_ids)

    def append(self, stream: str, first: int, values: Sequence,
               at: float) -> None:
        code = self._codes.get(stream)
        if code is None:
            code = self._codes[stream] = len(self.names)
            self.names.append(stream)
        msg_ids = list(map(_msg_id, values))
        try:
            self._add_ids(msg_ids)      # all or nothing
        except (TypeError, OverflowError):
            self.msg_ids = self.msg_ids.tolist()
            self._add_ids = self.msg_ids.extend
            self._add_ids(msg_ids)
        self.codes.append(code)
        self.firsts.append(first)
        self.lengths.append(len(msg_ids))
        self.ats.append(at)

    def mark(self) -> int:
        return self.delivered

    def rewind(self, mark: int) -> None:
        delivered = self.delivered
        if mark > delivered:
            raise ValueError(f"mark {mark} exceeds log length {delivered}")
        lengths = self.lengths
        kept, index = delivered, len(lengths)
        while kept > mark:
            index -= 1
            kept -= lengths[index]
        if kept < mark:                 # the mark splits run ``index``
            lengths[index] = mark - kept
            index += 1
        for column in (self.codes, self.firsts, lengths, self.ats):
            del column[index:]
        del self.msg_ids[mark:]
        if mark < self.folded:
            self.folded, self._folded_runs = mark, index
        self.rewinds += 1

    def _columns(self, run: int = 0, value: int = 0,
                 stop: Optional[int] = None, end: Optional[int] = None):
        """The columns of runs ``run`` to ``stop`` (values ``value`` to
        ``end``), each as an iterable of one item per value: stream
        names, positions, msg_ids and run times.  Only a part is
        copied; the whole log is read in place."""
        codes, firsts, lengths, ats, msg_ids = (
            self.codes, self.firsts, self.lengths, self.ats, self.msg_ids
        )
        if run or stop is not None:
            codes, firsts, lengths, ats = (
                codes[run:stop], firsts[run:stop], lengths[run:stop],
                ats[run:stop],
            )
            msg_ids = msg_ids[value:end]
        return (
            chain.from_iterable(
                map(repeat, map(self.names.__getitem__, codes), lengths)
            ),
            chain.from_iterable(
                map(range, firsts, map(add, firsts, lengths))
            ),
            msg_ids,
            chain.from_iterable(map(repeat, ats, lengths)),
        )

    def _deliveries(self, *span) -> Iterator[tuple]:
        """``(stream, position, msg_id)`` per value of ``span`` (the
        arguments of :meth:`_columns`), built by ``zip`` in C."""
        streams, positions, msg_ids, _ats = self._columns(*span)
        return zip(streams, positions, msg_ids)

    def unfolded(self, limit: int) -> Iterator[tuple]:
        """The next deliveries not yet folded, whole runs up to the
        first that reaches ``limit`` values, now counted folded."""
        run, value = stop, end = self._folded_runs, self.folded
        lengths, runs = self.lengths, len(self.lengths)
        while stop < runs and end - value < limit:
            end += lengths[stop]
            stop += 1
        self._folded_runs, self.folded = stop, end
        return self._deliveries(run, value, stop, end)

    def positions(self) -> dict[str, int]:
        """The last position delivered from each stream."""
        names = self.names
        return {
            names[code]: first + length - 1
            for code, first, length in zip(
                self.codes, self.firsts, self.lengths
            )
        }

    @property
    def records(self) -> list[DeliveryRecord]:
        """The log value by value (built on every read)."""
        return list(map(DeliveryRecord, *self._columns()))

    def same_sequence(self, other: "DeliveryLog") -> bool:
        """``sequence() == other.sequence()``, without building either:
        the counts first, then value by value up to the first
        difference."""
        return self.delivered == other.delivered and all(
            map(eq, self._deliveries(), other._deliveries())
        )

    def sequence(self) -> list[tuple[str, int, int]]:
        """The log as ``(stream, position, msg_id)`` triples."""
        return list(self._deliveries())


class InvariantSuite:
    """Attaches to a cluster's replicas and checks all invariants.

    ``check()`` raises :class:`InvariantViolation` on the first broken
    property.  It costs what was delivered since the previous call, so
    it runs periodically (the scenario runner and the deploy worker call
    it on a timer: a violation surfaces when it happens, not at the end
    of the run).  Memory: the delivery logs' identity columns, kept
    whole for ``sequence()`` and convergence, plus the spec's maps,
    bounded by ``_SPEC_BOUND`` entries a stream/group.
    """

    def __init__(self, replicas: Mapping[str, MulticastReplica]):
        self.replicas = dict(replicas)
        self.logs: dict[str, DeliveryLog] = {}
        self.groups: dict[str, list[str]] = {}
        self.spec = SafetySpec(bound=_SPEC_BOUND)
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
        """Fold everything new into the spec; raise what that proves.

        The logs are folded in turns of at most half the spec's bound
        each, so that a replica's deliveries are compared with the
        canon another replica of its group laid down before compaction
        retires it, however much arrived since the last check."""
        self.checks_run += 1
        spec = self.spec
        turn = max(1, spec.bound // 2)
        found: list[Violation] = []
        at = 0.0
        for name, log in self.logs.items():
            replica = self.replicas[name]
            at = replica.env.now
            if log.folded < log.delivered:
                found += spec.fold(name, log.group, log.unfolded(turn), at)
            # The current merger incarnation's commits; the spec keeps
            # the first report of each across recoveries.
            for request_id, point in replica.merger.stats.merge_points.items():
                found += spec.merge_point(
                    name, log.group, request_id, point, at
                )
        behind = [item for item in self.logs.items()
                  if item[1].folded < item[1].delivered]
        while behind:
            for name, log in behind:
                found += spec.fold(name, log.group, log.unfolded(turn),
                                   self.replicas[name].env.now)
            behind = [item for item in behind
                      if item[1].folded < item[1].delivered]
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
        return "\n".join(lines)
