"""Always-on safety invariant checkers for fault-injection runs.

The checkers tap every replica's delivery stream (via
:meth:`repro.multicast.replica.MulticastReplica.add_delivery_observer`)
and assert, continuously during a run and again at its end, the safety
properties Elastic Paxos promises under crashes, partitions, loss,
duplication and reordering (§II, Fig. 2 of the paper):

* **stream agreement** -- a stream position carries the same value at
  every replica that delivers it, across all groups (uniform agreement
  at the stream level);
* **prefix consistency** -- two replicas of the same group deliver
  identical sequences up to the shorter one (uniform agreement at the
  group level: nobody delivers something the others never will);
* **gap-free monotone delivery** -- per replica and stream, delivered
  positions strictly increase; a recovered replica resumes exactly at
  its checkpoint cursor, so replay never skips or repeats a position;
* **acyclic order** -- the union of all groups' delivery orders is
  acyclic (Fig. 2): two groups sharing streams never disagree on the
  relative order of messages they both deliver;
* **merge-point consistency** -- all replicas of a group that commit
  the same subscription request compute the identical merge point.

Crash-recovery semantics: a replica recovering from a checkpoint
legitimately *replays* deliveries made after that checkpoint.  The
scenario runner therefore marks the log at checkpoint time and rewinds
it on recovery; the ``(stream, position) -> value`` map survives the
rewind, so a replay that diverges from what was originally delivered is
still caught.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, NamedTuple, Optional

from ..multicast.replica import MulticastReplica

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
    """

    msg_id: Optional[int] = None


class DeliveryRecord(NamedTuple):
    """One delivery observed at one replica.

    A ``NamedTuple`` like :class:`repro.runtime.kernel.Envelope`: one is
    built per delivery per replica, and tuple construction happens in C
    while the frozen dataclass protocol pays a guarded
    ``object.__setattr__`` per field.
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
    that checkpoint and is about to replay the suffix.  The
    position->value memory is deliberately *not* rewound: replay must
    reproduce the original assignment.
    """

    def __init__(self, replica: str, group: str):
        self.replica = replica
        self.group = group
        self.records: list[DeliveryRecord] = []
        self.position_values: dict[tuple[str, int], int] = {}
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
    property; it is cheap enough to run periodically (the scenario
    runner calls it on a timer, so a violation surfaces at the virtual
    time it happens, not at the end of the run).
    """

    def __init__(self, replicas: Mapping[str, MulticastReplica]):
        self.replicas = dict(replicas)
        self.logs: dict[str, DeliveryLog] = {}
        self.groups: dict[str, list[str]] = {}
        # replica -> request_id -> (stream, merge point), accumulated
        # across merger incarnations (recovery replaces the merger).
        self._merge_points: dict[str, dict[int, tuple[str, int]]] = {}
        self.checks_run = 0
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            log = DeliveryLog(name, replica.group)
            self.logs[name] = log
            self._merge_points[name] = {}
            self.groups.setdefault(replica.group, []).append(name)
            replica.add_delivery_observer(self._observer(log))

    def _observer(self, log: DeliveryLog):
        replica = self.replicas[log.replica]

        def observe(value, stream, position):
            log.append(
                DeliveryRecord(
                    stream=stream,
                    position=position,
                    msg_id=value.msg_id,
                    payload=value.payload,
                    at=replica.env.now,
                )
            )

        return observe

    # -- checkpoint/recovery hooks (called by the scenario runner) ------

    def mark(self, replica: str) -> int:
        """Snapshot the log length of ``replica`` (at checkpoint time)."""
        return self.logs[replica].mark()

    def rewind(self, replica: str, mark: int) -> None:
        """Roll the log back to ``mark`` (recovery will replay from it)."""
        self.logs[replica].rewind(mark)

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
        """Assert every invariant against the current logs."""
        self.checks_run += 1
        self._check_monotone_gap_free()
        self._check_stream_agreement()
        self._check_prefix_consistency()
        self._check_acyclic_order()
        self._check_merge_points()

    def _check_monotone_gap_free(self) -> None:
        for name, log in self.logs.items():
            last: dict[str, int] = {}
            for record in log.records:
                prev = last.get(record.stream)
                if prev is not None and record.position <= prev:
                    raise self._violation(
                        f"{name}: delivery positions of {record.stream} not "
                        f"strictly increasing ({record.position} after {prev})",
                        msg_id=record.msg_id,
                    )
                last[record.stream] = record.position

    def _check_stream_agreement(self) -> None:
        # Across *all* replicas of all groups: one position, one value.
        # Survives rewinds via the per-log position memory.
        global_values: dict[tuple[str, int], tuple[str, int]] = {}
        for name, log in self.logs.items():
            for record in log.records:
                key = (record.stream, record.position)
                remembered = log.position_values.get(key)
                if remembered is not None and remembered != record.msg_id:
                    raise self._violation(
                        f"{name}: replay diverged at {key}: value "
                        f"{record.msg_id} vs originally {remembered}",
                        msg_id=record.msg_id,
                    )
                log.position_values[key] = record.msg_id
                seen = global_values.get(key)
                if seen is None:
                    global_values[key] = (name, record.msg_id)
                elif seen[1] != record.msg_id:
                    raise self._violation(
                        f"stream agreement broken at {key}: {name} delivered "
                        f"value {record.msg_id}, {seen[0]} delivered {seen[1]}",
                        msg_id=record.msg_id,
                    )

    def _check_prefix_consistency(self) -> None:
        for group, members in self.groups.items():
            if len(members) < 2:
                continue
            sequences = {name: self.logs[name].sequence() for name in members}
            reference = max(members, key=lambda n: len(sequences[n]))
            ref_seq = sequences[reference]
            for name in members:
                if name == reference:
                    continue
                seq = sequences[name]
                if seq != ref_seq[: len(seq)]:
                    divergence = next(
                        i for i, (a, b) in enumerate(zip(seq, ref_seq))
                        if a != b
                    )
                    raise self._violation(
                        f"group {group}: {name} diverges from {reference} at "
                        f"delivery #{divergence}: "
                        f"{seq[divergence]} vs {ref_seq[divergence]}",
                        msg_id=seq[divergence][2],
                    )

    def _check_acyclic_order(self) -> None:
        """The union of the groups' total orders must be acyclic (Fig. 2).

        Each group contributes the chain of its (longest) delivery
        sequence; a cycle in the union would mean two groups deliver a
        shared pair of messages in opposite relative order.
        """
        edges: dict[int, set[int]] = {}
        for group, members in self.groups.items():
            reference = max(members, key=lambda n: len(self.logs[n].records))
            records = self.logs[reference].records
            for before, after in zip(records, records[1:]):
                edges.setdefault(before.msg_id, set()).add(after.msg_id)
        # Iterative three-colour DFS for a cycle.
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[int, int] = {}
        for root in edges:
            if colour.get(root, WHITE) != WHITE:
                continue
            stack: list[tuple[int, Optional[object]]] = [(root, None)]
            while stack:
                node, iterator = stack.pop()
                if iterator is None:
                    if colour.get(node, WHITE) == BLACK:
                        continue
                    colour[node] = GREY
                    iterator = iter(edges.get(node, ()))
                advanced = False
                for succ in iterator:
                    state = colour.get(succ, WHITE)
                    if state == GREY:
                        raise self._violation(
                            f"acyclic order broken: delivery-order cycle "
                            f"through message {succ}",
                            msg_id=succ,
                        )
                    if state == WHITE:
                        stack.append((node, iterator))
                        stack.append((succ, None))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK

    def _check_merge_points(self) -> None:
        # Fold the current merger incarnation's records into the
        # accumulator, then compare across the group's replicas.
        for name, replica in self.replicas.items():
            accumulated = self._merge_points[name]
            for request_id, point in replica.merger.stats.merge_points.items():
                prior = accumulated.get(request_id)
                if prior is not None and prior != point:
                    raise self._violation(
                        f"{name}: recovery recomputed merge point of request "
                        f"{request_id} as {point}, originally {prior}",
                        msg_id=request_id,
                    )
                accumulated[request_id] = point
        for group, members in self.groups.items():
            agreed: dict[int, tuple[str, tuple[str, int]]] = {}
            for name in members:
                for request_id, point in self._merge_points[name].items():
                    seen = agreed.get(request_id)
                    if seen is None:
                        agreed[request_id] = (name, point)
                    elif seen[1] != point:
                        raise self._violation(
                            f"group {group}: merge point of request "
                            f"{request_id} differs: {name} computed {point}, "
                            f"{seen[0]} computed {seen[1]}",
                            msg_id=request_id,
                        )

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
            "invariants           : stream-agreement, prefix-consistency, "
            "gap-free, acyclic-order, merge-points -- all OK",
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
