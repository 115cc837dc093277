"""Trace event schema: the catalogue of kinds and their required fields.

Every event is one JSON object per line (JSONL).  All events carry the
envelope fields ``ts`` (virtual time, float), ``seq`` (monotone int),
``kind`` (string from :data:`EVENT_SCHEMA`) and ``cat`` (category).
:data:`EVENT_SCHEMA` maps each kind to the payload fields it must also
carry; extra fields are allowed (the schema is open for forward
compatibility), missing required fields are an error.

:func:`validate_event` / :func:`validate_file` are what the CI trace
smoke test runs against the output of ``python -m repro trace``.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional, TextIO, Union

__all__ = [
    "EVENT_SCHEMA",
    "FIXED_SHAPE",
    "FixedShape",
    "SchemaError",
    "materialise",
    "validate_event",
    "validate_file",
]


class SchemaError(ValueError):
    """A trace event does not match the schema."""


# kind -> required payload fields (beyond the ts/seq/kind/cat envelope).
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    # network wire level (category "net"; opt-in)
    "net.send": ("src", "dst", "type", "size"),
    "net.drop": ("src", "dst", "type", "reason"),
    "net.deliver": ("src", "dst", "type", "latency", "inbox_depth"),
    "net.duplicate": ("src", "dst", "type"),
    # network fault state changes (category "fault"; on by default)
    "net.partition": ("side_a", "side_b"),
    "net.unpartition": ("side_a", "side_b"),
    "net.heal": (),
    # the live transport's partition drill: ``peers`` blocked or
    # unblocked, and every peer blocked after the change
    "transport.partition": ("peers", "blocked", "now_blocked"),
    # the live transport parked a peer as unreachable after its
    # reconnect cap, ``dropped`` queued frames dying with the link, or
    # revived it on a new address (``dropped`` is 0 then)
    "transport.peer_unreachable": ("dst", "dropped"),
    "transport.peer_revived": ("dst", "dropped"),
    # actor lifecycle / dispatch
    "actor.crash": ("name",),
    "actor.recover": ("name",),
    "actor.dispatch": ("name", "src", "type"),     # category "dispatch"; opt-in
    # client-side message lifecycle
    "client.submit": ("client", "stream", "msg_id", "size"),
    "client.ack": ("client", "msg_id", "latency"),
    "client.timeout": ("client", "stream", "msg_id"),
    # dynamic-subscription control plane
    "control.subscribe": ("client", "group", "stream", "via", "request_id"),
    "control.unsubscribe": ("client", "group", "stream", "request_id"),
    "control.prepare": ("client", "group", "stream", "via", "request_id"),
    # coordinator (per-stream leader)
    "coord.phase1": ("coordinator", "stream", "ballot"),
    "coord.lead": ("coordinator", "stream", "ballot"),
    "coord.propose": ("coordinator", "stream", "type"),
    "coord.skip": ("coordinator", "stream", "count"),
    "coord.phase2": ("coordinator", "stream", "instance", "msg_ids", "positions"),
    "coord.retransmit": ("coordinator", "stream", "instance"),
    "coord.decide": ("coordinator", "stream", "instance", "positions"),
    # learner tasks
    "learner.learned": ("replica", "stream", "instance", "msg_ids", "positions"),
    "learner.recover.request": ("owner", "stream", "from_instance", "to_instance"),
    "learner.recover.reply": ("owner", "stream", "decided", "trimmed_below"),
    "learner.gap_repair": ("owner", "stream", "from_instance", "to_instance"),
    # deterministic merge (dMerge)
    "merge.subscribe.begin": ("replica", "group", "stream", "request_id"),
    "merge.subscribe.commit": (
        "replica", "group", "stream", "request_id", "merge_point", "waited",
    ),
    "merge.unsubscribe": ("replica", "group", "stream", "request_id"),
    "merge.prepare": ("replica", "group", "stream", "request_id"),
    # dMerge head-of-line wait ended: the merger's round-robin turn was
    # blocked ``waited`` seconds on ``stream`` before it produced the
    # next token (latency-attribution hint, docs/OBSERVABILITY.md).
    "merge.head_of_line": ("replica", "group", "stream", "waited"),
    # replica delivery (the end of a message's life)
    "replica.deliver": ("replica", "group", "stream", "position", "msg_id"),
    # fault injection & invariant checking
    "fault.inject": ("action",),
    "invariant.violation": ("message",),
    # elasticity controller (docs/ELASTICITY.md): one poll per control
    # tick, one decision per rule that cleared hysteresis/cooldown, and
    # one action per reconfiguration actually issued.  The action's
    # request_id is the same id the control.subscribe / merge.* events
    # carry, which is how validate-trace-era tooling links a decision
    # to the reconfiguration it caused.
    "elastic.poll": ("controller",),
    "elastic.decision": ("controller", "rule", "action", "mode"),
    "elastic.action": ("controller", "action", "stream", "request_id"),
    # flight-recorder dump metadata
    "meta.violation": ("message",),
    # live telemetry plane (docs/OBSERVABILITY.md, "Live mode")
    "net.context": ("src", "dst", "origin"),    # wire trace context arrived
    # Live transport: frame left the per-peer send queue after ``wait``
    # seconds (queue vs. wire split for latency attribution).
    "transport.queue_wait": ("dst", "msg_id", "wait"),
    "meta.node": ("node", "clock"),             # per-node trace header
    "meta.clock": ("node", "ref", "offset"),    # handshake offset estimate
    "meta.merge": ("nodes",),                   # merged-timeline header
    # online audit & watchdog plane (docs/OBSERVABILITY.md, "Online
    # audit").  audit.check summarises one certification pass;
    # audit.violation is a proved safety-property breach; alert.raise /
    # alert.clear are watchdog anomaly transitions (the detector name
    # travels in the payload, not the kind, so the kind set stays
    # closed and validate-trace keeps rejecting unknown kinds).
    "audit.check": ("events", "violations"),
    "audit.violation": ("property", "message"),
    "alert.raise": ("detector", "severity", "message"),
    "alert.clear": ("detector",),
}

_ENVELOPE = ("ts", "seq", "kind", "cat")


class FixedShape(NamedTuple):
    """How one per-value kind travels as a record instead of a dict."""

    cat: str
    fields: tuple[str, ...]             # payload field names, emit order
    optional: frozenset = frozenset()   # left out of the event when None
    # A run record stands for consecutive events: it carries every field
    # but ``fields[repeated]`` once, in order, then one value of that
    # field per event, and the events take consecutive ``seq`` numbers
    # at one ``ts``.  With ``counted`` the field before the repeated one
    # counts up from the value the record carries; without it every
    # event has the record's value of every other field.
    run: bool = False
    counted: bool = False
    repeated: int = -1                  # index into ``fields``
    # With ``listed`` (and no ``run``) the record stands for one event
    # whose ``fields[repeated]`` is a list: the record carries every
    # other field once, in order, then that list's items.  A record
    # stays a flat tuple of scalars either way.
    listed: bool = False


# The kinds emitted once or more per delivered value.  Their call sites
# pass ``Tracer.emit(kind, at, values)`` one positional tuple in the
# order of ``fields`` and the flight recorder keeps the record ``(ts,
# seq, kind, *values)`` as is; :func:`materialise` builds the event
# dicts -- same keys, same order as the keyword form of ``emit`` would
# -- when somebody reads it.  ``fields`` starts with the kind's required
# fields (tests/obs/test_schema.py holds the two declarations together).
# ``client.submit`` is a run of the values of one size a client handed
# the transport at once, ``(client, stream, size, msg_id, msg_id, ...)``
# (``MulticastClient``).
# ``replica.deliver`` is a counted run: ``(replica, group, stream,
# position, msg_id, msg_id, ...)`` is one delivered run of a stream, a
# value per position from ``position`` on (``MulticastReplica``).
# ``coord.propose`` is a run of the values a coordinator queued at once,
# ``(coordinator, stream, "AppValue", msg_id, msg_id, ...)``; a token
# without a ``msg_id`` (a skip, a control message and its
# ``request_id``) is emitted by keyword.
# ``coord.phase2`` and ``learner.learned`` are one event per instance
# whose ``msg_ids`` is listed: ``(coordinator, stream, instance,
# positions, msg_id, msg_id, ...)``.
FIXED_SHAPE: dict[str, FixedShape] = {
    "client.submit": FixedShape(
        "client", ("client", "stream", "msg_id", "size"), run=True,
        repeated=2),
    "coord.propose": FixedShape(
        "coord", ("coordinator", "stream", "type", "msg_id"), run=True),
    "coord.phase2": FixedShape(
        "coord", ("coordinator", "stream", "instance", "msg_ids", "positions"),
        repeated=3, listed=True),
    "coord.decide": FixedShape(
        "coord", ("coordinator", "stream", "instance", "positions",
                  "closed_by"),
        optional=frozenset({"closed_by"})),
    "learner.learned": FixedShape(
        "learner", ("replica", "stream", "instance", "msg_ids", "positions"),
        repeated=3, listed=True),
    "merge.head_of_line": FixedShape(
        "merge", ("replica", "group", "stream", "waited")),
    "transport.queue_wait": FixedShape(
        "transport", ("dst", "msg_id", "wait")),
    "net.context": FixedShape(
        "meta", ("src", "dst", "origin", "msg_id", "origin_ts")),
    "replica.deliver": FixedShape(
        "replica", ("replica", "group", "stream", "position", "msg_id"),
        run=True, counted=True),
}


def materialise(record: tuple, node: Optional[str] = None) -> list[dict]:
    """The event dicts of one ``(ts, seq, kind, *values)`` record, as a
    tracer stamping ``node`` emits them: one, or one per value of a run."""
    ts, seq, kind = record[:3]
    shape = FIXED_SHAPE[kind]
    if not (shape.run or shape.listed):
        return [_event(shape, ts, seq, kind, node, record[3:])]
    last = 2 + len(shape.fields)        # index of the first repeated value
    split = shape.repeated % len(shape.fields)
    before, after = record[3:3 + split], record[3 + split:last]
    if shape.listed:
        return [_event(shape, ts, seq, kind, node,
                       before + (list(record[last:]),) + after)]
    if not shape.counted:
        return [
            _event(shape, ts, seq + offset, kind, node,
                   before + (value,) + after)
            for offset, value in enumerate(record[last:])
        ]
    before, first = before[:-1], before[-1]
    return [
        _event(shape, ts, seq + offset, kind, node,
               before + (first + offset, value) + after)
        for offset, value in enumerate(record[last:])
    ]


def _event(shape: FixedShape, ts, seq: int, kind: str,
           node: Optional[str], values: tuple) -> dict:
    event = {"ts": ts, "seq": seq, "kind": kind, "cat": shape.cat}
    if node is not None:
        event["node"] = node
    optional = shape.optional
    for name, value in zip(shape.fields, values):
        if value is not None or name not in optional:
            event[name] = value
    return event


def validate_event(event: dict) -> None:
    """Raise :class:`SchemaError` unless ``event`` matches the schema."""
    if not isinstance(event, dict):
        raise SchemaError(f"event is not an object: {event!r}")
    for key in _ENVELOPE:
        if key not in event:
            raise SchemaError(f"event missing envelope field {key!r}: {event!r}")
    if not isinstance(event["ts"], (int, float)):
        raise SchemaError(f"ts is not a number: {event!r}")
    if not isinstance(event["seq"], int):
        raise SchemaError(f"seq is not an integer: {event!r}")
    kind = event["kind"]
    try:
        required = EVENT_SCHEMA[kind]
    except KeyError:
        raise SchemaError(f"unknown event kind {kind!r}") from None
    for field in required:
        if field not in event:
            raise SchemaError(
                f"{kind} event missing required field {field!r}: {event!r}"
            )


def validate_file(source: Union[str, TextIO, Iterable[str]]) -> int:
    """Validate a JSONL trace; returns the number of events checked.

    ``source`` is a path, an open text file, or an iterable of lines.
    Raises :class:`SchemaError` (with the line number) on the first
    invalid line; an empty trace is an error -- a run that traced
    nothing should fail loudly.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return validate_file(handle)
    count = 0
    last_seq = None
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            validate_event(event)
        except SchemaError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if last_seq is not None and event["seq"] <= last_seq:
            raise SchemaError(
                f"line {lineno}: seq {event['seq']} not monotonically "
                f"increasing (previous {last_seq})"
            )
        last_seq = event["seq"]
        count += 1
    if count == 0:
        raise SchemaError("trace contains no events")
    return count

