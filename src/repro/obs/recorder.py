"""Flight recorder: a bounded ring buffer of recent trace events.

The recorder is a tracer sink that keeps the most recent events in
memory, within a byte budget.  When a safety invariant fires, its buffer
is dumped to a JSONL file -- a live run's own ring, or the ring of a
simulated run's replay (:mod:`repro.faults.runner`) -- so every
``INVARIANT VIOLATION`` ships with the causal history that led up to it:
which message was submitted where, how it was ordered, and who
delivered it.

It is always on in live runs, so what it costs per event is what it
costs per delivered value: the per-value kinds arrive as ``(ts, seq,
kind, *values)`` records (``FIXED_SHAPE`` in :mod:`repro.obs.schema`)
and stay that way in the ring -- one small tuple of scalars the
collector stops tracking, no dict -- until :meth:`~FlightRecorder.events`,
:meth:`~FlightRecorder.causal_history` or :meth:`~FlightRecorder.dump`
reads them.  Every other kind arrives as the dict it always was.  The
ring bound counts bytes: each entry is charged a cheap over-estimate of
what it holds (:func:`charge`), and the oldest entries leave once the
charges pass ``max_bytes`` -- a delivered run of 160 values costs what
it holds, not one slot in a count of entries.  A replica's delivered run
is one record, read back as one ``replica.deliver`` event per value.

:meth:`FlightRecorder.causal_history` filters the buffer down to the
events that mention one message id (``msg_id`` field, ``msg_ids`` batch
lists, or ``request_id`` for control messages), reconstructing that
message's submit -> propose -> Phase 2 -> decide -> learn -> deliver
path.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional, Union

from .read import msg_ids
from .schema import materialise

__all__ = ["DEFAULT_MAX_BYTES", "FlightRecorder", "charge"]

# The ring's default budget.  It holds the whole of a 30 s
# ``live_open_multi`` ledger run (5.5-6.1 MB of records, charged up to
# ~8.8 MB) and every event of a 5 s chaos schedule, and stops a
# saturated live run's ring at a fixed size: at 100k entries it would
# have reached ~240 MB (docs/RUNTIME.md, "Memory per entry").
DEFAULT_MAX_BYTES = 16 * 2 ** 20

# What an entry holds, per field and per dict (tracemalloc, CPython
# 3.11): a field is a pointer and, unless it is a shared name, a number
# of its own (~40 B); a dict adds its table.  Over-estimates a record of
# names, matches one of numbers (a run of msg_ids) within 2%.
_PER_FIELD = 40
_PER_DICT = 96


def charge(entry: Union[dict, tuple]) -> int:
    """The bytes the ring charges for ``entry``: a list inside a dict
    counts as one field."""
    if entry.__class__ is dict:
        return _PER_DICT + _PER_FIELD * len(entry)
    return _PER_FIELD * len(entry)


class FlightRecorder:
    """Ring-buffer trace sink with JSONL dump support."""

    # Tracer protocol: fixed-shape events come as records, and the
    # tracer this sink is added to sets ``node`` (what it stamps on
    # every event, or None) for materialising them.
    takes_records = True
    node: Optional[str] = None

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._buffer: deque[Union[dict, tuple]] = deque()
        self.bytes = 0             # what the buffered entries are charged
        self.recorded = 0          # lifetime entries (>= len(buffer))

    def record(self, event: Union[dict, tuple]) -> None:
        self.recorded += 1
        buffer = self._buffer
        buffer.append(event)
        self.bytes += charge(event)
        # The newest entry stays, whatever it costs.
        while self.bytes > self.max_bytes and len(buffer) > 1:
            self.bytes -= charge(buffer.popleft())

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Entries (events, or records) evicted by the byte bound."""
        return self.recorded - len(self._buffer)

    def events(self) -> list[dict]:
        """Snapshot of the buffered events, oldest first (a run record
        read back as its per-value events)."""
        node = self.node
        events: list[dict] = []
        for entry in self._buffer:
            if entry.__class__ is dict:
                events.append(entry)
            else:
                events.extend(materialise(entry, node))
        return events

    def clear(self) -> None:
        self._buffer.clear()
        self.bytes = 0

    # -- causal filtering ------------------------------------------------

    def causal_history(self, msg_id: int) -> list[dict]:
        """Every buffered event that mentions ``msg_id``, oldest first:
        as one of its :func:`~repro.obs.read.msg_ids`, or as the
        ``request_id`` of a control message."""
        return [
            event for event in self.events()
            if msg_id in msg_ids(event) or event.get("request_id") == msg_id
        ]

    # -- dumping ---------------------------------------------------------

    def dump(
        self,
        path: str,
        header: Optional[dict] = None,
    ) -> int:
        """Write the buffer to ``path`` as JSONL; returns events written.

        ``header``, when given, is emitted as a leading ``meta.violation``
        event (schema-valid) carrying the violation message and, when
        known, the violating ``msg_id`` -- so a dump is self-describing.
        """
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                first_ts = events[0]["ts"] if events else 0.0
                meta = {
                    "ts": header.get("ts", first_ts),
                    "seq": -1,
                    "kind": "meta.violation",
                    "cat": "meta",
                }
                meta.update({k: v for k, v in header.items() if k != "ts"})
                meta.setdefault("message", "")
                handle.write(json.dumps(meta, separators=(",", ":")) + "\n")
            for event in events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        return len(events)
