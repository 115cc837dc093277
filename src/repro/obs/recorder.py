"""Flight recorder: a bounded ring buffer of recent trace events.

The recorder is a tracer sink that keeps the last ``capacity`` events in
memory.  When a safety invariant fires during a fault-injection run, the
scenario runner dumps the buffer to a JSONL file, so every ``INVARIANT
VIOLATION`` ships with the causal history that led up to it -- which
message was submitted where, how it was ordered, and who delivered it.

It is always on in live runs, so what it costs per event is what it
costs per delivered value: the per-value kinds arrive as ``(ts, seq,
kind, *values)`` records (``FIXED_SHAPE`` in :mod:`repro.obs.schema`)
and stay that way in the ring -- one small tuple of scalars the
collector stops tracking, no dict -- until :meth:`~FlightRecorder.events`,
:meth:`~FlightRecorder.causal_history` or :meth:`~FlightRecorder.dump`
reads them.  Every other kind arrives as the dict it always was.  The
ring bound counts entries: a replica's delivered run is one record, read
back as one ``replica.deliver`` event per value.

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

from .schema import materialise

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring-buffer trace sink with JSONL dump support."""

    # Tracer protocol: fixed-shape events come as records, and the
    # tracer this sink is added to sets ``node`` (what it stamps on
    # every event, or None) for materialising them.
    takes_records = True
    node: Optional[str] = None

    def __init__(self, capacity: int = 100_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: deque[Union[dict, tuple]] = deque(maxlen=capacity)
        self.recorded = 0          # lifetime entries (>= len(buffer))

    def record(self, event: Union[dict, tuple]) -> None:
        self.recorded += 1
        self._buffer.append(event)

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Entries (events, or run records) evicted by the ring bound."""
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

    # -- causal filtering ------------------------------------------------

    @staticmethod
    def _mentions(event: dict, msg_id: int) -> bool:
        if event.get("msg_id") == msg_id or event.get("request_id") == msg_id:
            return True
        ids = event.get("msg_ids")
        return ids is not None and msg_id in ids

    def causal_history(self, msg_id: int) -> list[dict]:
        """Every buffered event that mentions ``msg_id``, oldest first."""
        return [e for e in self.events() if self._mentions(e, msg_id)]

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
