"""The read side of the trace plane: read -> align -> index.

Every consumer of a trace -- ``stats`` and ``latency``
(:class:`repro.obs.spans.LifecycleIndex`), ``trace-merge``
(:mod:`repro.obs.merge`), ``trace --follow`` and ``watch``
(:class:`repro.obs.watch.TraceWatch`) -- reads through this module, so
a live tail and a post-hoc read run the same code.

**Read.**  :class:`IncrementalTraceReader` is the only code that turns
trace bytes into events; a post-hoc read (:func:`read_trace`) is a
drained one.  A line is an event once it parses as a JSON object, with
its newline or without (an object is complete at its closing brace).
Bytes after the last newline that do not parse are a line still being
written, which a tail holds until the rest arrives; at the end of a
post-hoc read they are a torn trace, what a kill -9'd worker leaves.

**Align.**  :class:`ClockAlignment` folds ``meta.clock`` and
``meta.merge`` events into ``node -> offset``.  A per-node trace is on
its node's clock; a merged timeline is on the reference clock already,
so after its ``meta.merge`` header nothing is shifted again.

**Index.**  :func:`msg_ids` is the one rule for which application
messages an event is about.
"""

from __future__ import annotations

import heapq
import json
import os
from typing import Iterable, Optional, Union

__all__ = [
    "ClockAlignment", "IncrementalTraceReader", "TraceDirectorySource",
    "msg_ids", "read_trace",
]

# Bytes read at a time: a post-hoc read of a large trace holds its
# events, not a second copy of the file.
_BLOCK = 1 << 20


# -- read --------------------------------------------------------------

class IncrementalTraceReader:
    """Tail one JSONL trace file; each poll yields the new events.

    Tolerates every artifact a live run produces: the file not existing
    yet (the worker has not booted), a line still being written (held
    until a later append completes it), interleaved malformed lines
    (counted in ``malformed`` and skipped; the first one's error is kept
    in ``error``), and truncation (cursor reset, counted in ``resets``).
    Without a ``path`` it reads only what it is :meth:`feed`.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self.offset = 0
        self.events_read = 0
        self.malformed = 0
        self.resets = 0
        self.error: Optional[ValueError] = None
        self._partial = b""

    def poll(self) -> list[dict]:
        """The events appended to the file since the previous poll."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            # Truncated or recreated underneath us: start over.
            self.offset = 0
            self._partial = b""
            self.resets += 1
        if size == self.offset:
            return []
        events: list[dict] = []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            while chunk := handle.read(_BLOCK):
                self.offset += len(chunk)
                events += self.feed(chunk)
        return events

    def feed(self, chunk: bytes) -> list[dict]:
        """The events ``chunk`` completes."""
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()
        events = [e for e in map(self._parse, lines) if e is not None]
        if self._partial:
            try:
                last = json.loads(self._partial)
            except ValueError:
                return events           # still being written, or torn
            if isinstance(last, dict):
                self._partial = b""
                self.events_read += 1
                events.append(last)
        return events

    def _parse(self, raw: bytes) -> Optional[dict]:
        if not raw.strip():
            return None
        try:
            event = json.loads(raw)
            if not isinstance(event, dict):
                raise json.JSONDecodeError(
                    "not an event object", raw.decode("utf-8", "replace"), 0,
                )
        except ValueError as exc:
            self.malformed += 1
            self.error = self.error or exc
            return None
        self.events_read += 1
        return event


def read_trace(
    source: Union[str, Iterable[str]],
    skip_malformed: bool = False,
) -> list[dict]:
    """Every event of a trace (a path, or an iterable of its lines), by
    a drained :class:`IncrementalTraceReader`.

    Strict by default: the first malformed line, or a torn last one,
    raises its :class:`json.JSONDecodeError` (``stats`` and ``latency``
    refuse a torn trace).  ``skip_malformed`` salvages instead, keeping
    every event that parses (``trace-merge``).
    """
    if isinstance(source, str):
        os.stat(source)             # a missing trace is not an empty one
        reader = IncrementalTraceReader(source)
        events = reader.poll()
    else:
        reader = IncrementalTraceReader(None)
        events = reader.feed("".join(source).encode("utf-8"))
    # End of input ends the last line: a torn one is malformed.
    events += reader.feed(b"\n")
    if reader.error is not None and not skip_malformed:
        raise reader.error
    return events


class TraceDirectorySource:
    """Tail every per-node trace under a run directory.

    New ``*.trace.jsonl`` files are discovered on every poll (a
    restarted worker shows up as a fresh incarnation trace,
    ``n3-r1.trace.jsonl``, mid-run); ``merged.trace.jsonl`` is excluded
    because it duplicates the per-node events.  ``paths`` pins an
    explicit file list instead of scanning a directory.  A poll
    interleaves the files' new events by aligned timestamp (``clock``
    folds their ``meta.clock`` marks), each file's own order kept, so a
    post-hoc read follows the run's time across nodes as a live tail
    does.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        paths: Optional[Iterable[str]] = None,
    ):
        self.directory = directory
        self.readers = {path: IncrementalTraceReader(path)
                        for path in paths or ()}
        self.clock = ClockAlignment()

    def _discover(self) -> None:
        if self.directory is None:
            return
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            path = os.path.join(self.directory, name)
            if (name.endswith(".trace.jsonl") and not name.startswith("merged")
                    and path not in self.readers):
                self.readers[path] = IncrementalTraceReader(path)

    def poll(self) -> list[dict]:
        self._discover()
        batches = [self.readers[path].poll() for path in sorted(self.readers)]
        clock = self.clock
        for events in batches:
            for event in events:
                clock.observe(event)
        return list(heapq.merge(*batches, key=lambda event: (
            float(event.get("ts", 0.0))
            - clock.shift(str(event.get("node", "")))
        )))

    @property
    def events_read(self) -> int:
        return sum(r.events_read for r in self.readers.values())

    @property
    def malformed(self) -> int:
        return sum(r.malformed for r in self.readers.values())


# -- align -------------------------------------------------------------

class ClockAlignment:
    """``node -> offset`` (the node's clock minus the reference node's,
    from the run driver's handshake; the last ``meta.clock`` wins, and
    ``rtts`` keeps each estimate's round trip).  A ``meta.merge`` header
    brings the offsets ``trace-merge`` applied and sets ``aligned``."""

    def __init__(self):
        self.offsets: dict[str, float] = {}
        self.rtts: dict[str, float] = {}
        self.aligned = False

    def observe(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "meta.clock":
            node = str(event.get("node", ""))
            self.offsets[node] = float(event.get("offset", 0.0))
            rtt = event.get("rtt")
            if rtt is not None:
                self.rtts[node] = float(rtt)
        elif kind == "meta.merge":
            self.offsets.update(event.get("offsets") or {})
            self.aligned = True

    def shift(self, node: str) -> float:
        """What to subtract from ``node``'s timestamps to put them on
        the reference clock."""
        return 0.0 if self.aligned else self.offsets.get(node, 0.0)


# -- index -------------------------------------------------------------

def msg_ids(event: dict) -> tuple:
    """The application messages ``event`` is about: its ``msg_id``, or
    else its batch's ``msg_ids``."""
    msg_id = event.get("msg_id")
    if msg_id is not None:
        return (msg_id,)
    return tuple(event.get("msg_ids") or ())
