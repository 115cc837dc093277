"""Structured trace event bus with a near-zero-cost no-op default.

Every layer of the reproduction -- the simulation kernel, the network,
actor dispatch, the Paxos roles, the elastic merger and the clients --
carries instrumentation points of the form::

    tracer = self.env.tracer
    if tracer is not None:
        tracer.emit("coord.decide", self.env.now, stream=..., instance=...)

When no tracer is installed (the default), every probe costs one
attribute load and an ``is None`` test, which keeps the traced hot
paths within the experiment wall-clock budget.  When a tracer *is*
installed, events are typed dictionaries

    ``{"ts": <virtual time>, "seq": <int>, "kind": <str>, "cat": <str>,
       ...payload fields...}``

fanned out to the attached sinks (an in-memory list, a JSONL file, the
flight recorder's ring buffer, or a streaming consumer such as the
:class:`repro.obs.spans.LifecycleIndex`).

The few kinds emitted per delivered value (``FIXED_SHAPE`` in
:mod:`repro.obs.schema`) are emitted as ``tracer.emit(kind, at,
values)``, one positional tuple: a sink that ``takes_records`` (the
flight recorder) keeps the record ``(ts, seq, kind, *values)`` and
builds the dict when it is read, every other sink gets the same dict as
ever, built once per event.  A delivered run is one ``replica.deliver``
record that stands for one event per value.

Installation
------------
A tracer is installed process-wide with :func:`install` /
:func:`uninstall` (or the :func:`installed` context manager) **before**
the :class:`repro.sim.core.Environment` is created: the environment
captures the current tracer at construction, so already-running
simulations are unaffected by later installs.  The metrics registry
(:mod:`repro.obs.metrics`) uses the same slot mechanism, defined here so
that the kernel only ever needs to import this dependency-free module.

Categories
----------
The category of an event defaults to the ``kind`` prefix before the
first dot (``net.send`` -> ``net``).  High-volume wire/kernel categories
(``net``, ``sim``, ``dispatch``) are excluded by default; pass
``categories=ALL_CATEGORIES`` (or an explicit set) to capture them.
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, Callable, Iterable, Optional

from .schema import FIXED_SHAPE, materialise

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_CATEGORIES",
    "JsonlSink",
    "ListSink",
    "Tracer",
    "current_metrics",
    "current_tracer",
    "install",
    "install_metrics",
    "installed",
    "uninstall",
    "uninstall_metrics",
]

# Protocol-level categories captured by default: these carry msg_id /
# request_id correlation and are what the lifecycle spans are built
# from.  The wire- and kernel-level firehoses are opt-in.
DEFAULT_CATEGORIES = frozenset(
    {
        "client",
        "control",
        "coord",
        "learner",
        "merge",
        "replica",
        "actor",
        "fault",
        "invariant",
        "elastic",
        "meta",
        "transport",
        "audit",
        "alert",
    }
)
_NOISY_CATEGORIES = frozenset({"net", "sim", "dispatch"})
ALL_CATEGORIES = DEFAULT_CATEGORIES | _NOISY_CATEGORIES


class _KindCategories(dict):
    """``kind -> kind's prefix before the first dot``, computed once per
    kind: ``emit`` runs for every event of the always-on flight recorder,
    and kinds are a small fixed vocabulary (``obs/schema.py``)."""

    def __missing__(self, kind: str) -> str:
        category = self[kind] = kind.partition(".")[0]
        return category


_CATEGORY_OF = _KindCategories()


class ListSink:
    """Collects events into an in-memory list (tests, small runs)."""

    def __init__(self):
        self.events: list[dict] = []

    def record(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams events to a JSON-lines file, one event per line."""

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "w", encoding="utf-8")
        self.written = 0

    def record(self, event: dict) -> None:
        self._file.write(json.dumps(event, separators=(",", ":")))
        self._file.write("\n")
        self.written += 1

    def flush(self) -> None:
        """Push buffered lines to disk so a live tail can see them."""
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class Tracer:
    """Fans typed trace events out to its sinks.

    Parameters
    ----------
    sinks:
        Objects with a ``record(event: dict)`` method.  A plain callable
        is also accepted.  A sink whose ``takes_records`` attribute is
        true is handed fixed-shape events as ``(ts, seq, kind,
        *values)`` records through the same method, and is told this
        tracer's ``node`` (its ``node`` attribute) so it can materialise
        them.
    categories:
        Set of category names to capture; defaults to
        :data:`DEFAULT_CATEGORIES`.  Use :data:`ALL_CATEGORIES` to
        include the wire/kernel firehoses.
    node:
        Optional node id of the emitting process/clock domain.  When
        set, every event is stamped with a ``node`` field and ``ts``
        is understood as that node's local clock; the trace-merge tool
        (:mod:`repro.obs.merge`) aligns such per-node traces onto one
        timeline.  Sim traces (one process, one virtual clock) leave it
        unset, and their events are byte-identical to before.
    clock:
        Clock-domain label stamped alongside ``node`` in the
        ``meta.node`` header event: ``"virtual"`` (sim) or ``"wall"``
        (live node-local seconds since kernel start).
    """

    def __init__(
        self,
        sinks: Iterable[Any] = (),
        categories: Optional[Iterable[str]] = None,
        node: Optional[str] = None,
        clock: str = "virtual",
    ):
        # Sinks by what they take of a fixed-shape event: the record,
        # or the dict every sink takes of any other event.
        self._record_sinks: list[Callable[[Any], None]] = []
        self._dict_sinks: list[Callable[[dict], None]] = []
        self._sink_objs: list[Any] = []
        self.node = node
        for sink in sinks:
            self.add_sink(sink)
        self.clock = clock
        self.categories = frozenset(
            categories if categories is not None else DEFAULT_CATEGORIES
        )
        # Fixed-shape kinds wanted -> payload fields less one: a record
        # of one of them stands for ``len(values)`` less that many
        # events (one, unless the kind is a run).
        self._fixed_kinds = {
            kind: len(shape.fields) - 1 for kind, shape in FIXED_SHAPE.items()
            if shape.cat in self.categories
        }
        # Cached membership tests for the hottest guard sites.
        self.wants_net = "net" in self.categories
        self.wants_sim = "sim" in self.categories
        self.wants_dispatch = "dispatch" in self.categories
        self._seq = 0                   # the next event's seq
        self.emitted = 0                # events, a run counted per value

    def add_sink(self, sink: Any) -> None:
        self._sink_objs.append(sink)
        record = sink.record if hasattr(sink, "record") else sink
        if getattr(sink, "takes_records", False):
            sink.node = self.node
            self._record_sinks.append(record)
        else:
            self._dict_sinks.append(record)

    def wants(self, category: str) -> bool:
        return category in self.categories

    def emit(
        self,
        kind: str,
        at: float,
        values: Optional[tuple] = None,
        cat: Optional[str] = None,
        **fields,
    ) -> None:
        """Record one event at virtual time ``at``.

        Either keyword ``fields`` (``cat`` defaults to the ``kind``
        prefix before the first dot), or -- for a ``FIXED_SHAPE`` kind
        -- ``values``, the payload as one tuple in the declared order
        (for a run kind, one value of its last field per event: the
        record takes that many consecutive ``seq`` numbers).
        Fields must be JSON-serialisable (strings, numbers, lists).
        """
        seq = self._seq
        if values is not None:
            head = self._fixed_kinds.get(kind)
            if head is None:
                if kind not in FIXED_SHAPE:     # filtered out is fine
                    raise KeyError(f"no FIXED_SHAPE declared for {kind!r}")
                return
            count = len(values) - head
            self._seq = seq + count
            self.emitted += count
            # Flat, not nested: a tuple of scalars leaves the collector's
            # lists at the first pass that sees it, a tuple holding a
            # tuple only at the second (docs/RUNTIME.md, "Collector
            # policy").
            record = (at, seq, kind) + values
            for sink in self._record_sinks:
                sink(record)
            if self._dict_sinks:
                for event in materialise(record, self.node):
                    for sink in self._dict_sinks:
                        sink(event)
            return
        category = cat if cat is not None else _CATEGORY_OF[kind]
        if category not in self.categories:
            return
        self._seq = seq + 1
        event = {"ts": at, "seq": seq, "kind": kind, "cat": category}
        if self.node is not None:
            event["node"] = self.node
        event.update(fields)
        self.emitted += 1
        for sink in self._record_sinks:
            sink(event)
        for sink in self._dict_sinks:
            sink(event)

    def close(self) -> None:
        for sink in self._sink_objs:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# -- process-wide install slots ------------------------------------------
#
# The kernel (repro.sim.core.Environment) captures these at construction.
# They live here -- not in repro.obs.__init__ -- so that importing them
# from the kernel never drags in modules that themselves import the
# kernel (repro.obs.metrics builds on repro.sim.monitor).

_current_tracer: Optional[Tracer] = None
_current_metrics: Optional[Any] = None


def current_tracer() -> Optional[Tracer]:
    """The process-wide tracer new environments will adopt (or None)."""
    return _current_tracer


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide default for new environments."""
    global _current_tracer
    _current_tracer = tracer
    return tracer


def uninstall() -> None:
    global _current_tracer
    _current_tracer = None


def current_metrics() -> Optional[Any]:
    """The process-wide metrics registry for new environments (or None)."""
    return _current_metrics


def install_metrics(registry: Any) -> Any:
    global _current_metrics
    _current_metrics = registry
    return registry


def uninstall_metrics() -> None:
    global _current_metrics
    _current_metrics = None


@contextlib.contextmanager
def installed(
    tracer: Optional[Tracer] = None, metrics: Optional[Any] = None
):
    """Context manager: install a tracer and/or metrics registry for the
    duration of the block (environment construction must happen inside)."""
    if tracer is not None:
        install(tracer)
    if metrics is not None:
        install_metrics(metrics)
    try:
        yield tracer
    finally:
        if tracer is not None:
            uninstall()
        if metrics is not None:
            uninstall_metrics()
