"""Spans around the calls into each layer, recorded from outside.

The ledger's per-layer numbers come from one *traced* repetition.  This
module wraps, from the benchmark's side, the public entry points of
every layer (codec functions, ``TcpTransport.send``, the actors'
``dispatch``, ``ElasticMerger.pump``, ``MulticastReplica.apply`` and
its observers, ``Tracer.emit``, the sim's ``Network.send``) so that the
program itself carries no new instrumentation.

A span is ``(name, start_ns, end_ns, parent)``.  Everything runs on one
thread, so nesting is a stack: a span's *self time* is its duration
minus the time its children cover, and the self times of all spans plus
the unattributed remainder (event loop, timers, syscalls -- the
``residual`` row) equal the process CPU of the traced window.  Garbage
collection is recorded as a span too (via ``gc.callbacks``), otherwise
a pause would be charged to whichever layer happened to allocate.

Aggregates (count / self time per span name) are kept for the whole
run; raw spans are kept up to ``keep`` entries for the ``*.spans.json``
side file.  Counts that no public counter exposes (values per
instance, skip positions, batch and merge waits) are read off the
payloads the wrappers see.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from typing import Any, Callable, Iterator

# One value in WAIT_SAMPLE_EVERY has its coordinator batch wait and its
# merge wait timed; timing every value would make the bookkeeping the
# most expensive layer of the traced run.
WAIT_SAMPLE_EVERY = 8

_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory span store with running per-name aggregates."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.count: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[Any] = []          # (name_id, start, end, parent)
        self.dropped_spans = 0
        # One frame per open span: [ns covered by children, span index].
        self._stack: list[list[int]] = []
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.gc_pauses_ns: list[int] = []
        self.gen2_collections = 0

    # -- recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.self_ns.append(0)
        return nid

    def begin(self) -> list[int]:
        spans = self.spans
        if len(spans) < self.keep:
            index = len(spans)
            spans.append(None)
        else:
            index = -1
            self.dropped_spans += 1
        frame = [0, index, self._stack[-1][1] if self._stack else -1]
        self._stack.append(frame)
        return frame

    def end(self, nid: int, frame: list[int], start: int) -> None:
        end = _now()
        stack = self._stack
        stack.pop()
        duration = end - start
        self.count[nid] += 1
        self.self_ns[nid] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if frame[1] >= 0:
            self.spans[frame[1]] = (nid, start, end, frame[2])

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[..., Any] | None = None,
        after: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.  ``before(*args)`` and
        ``after(token, *args)`` run inside the span (their cost is the
        tracing overhead, charged to the layer they observe)."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        if before is None and after is None:
            def traced(*args, **kwargs):
                frame = begin()
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(nid, frame, start)
        else:
            def traced(*args, **kwargs):
                frame = begin()
                start = _now()
                try:
                    token = before(*args) if before is not None else None
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(token, *args)
                    return result
                finally:
                    end(nid, frame, start)

        traced.__wrapped__ = fn
        return traced

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def sample(self, series: str, value: float) -> None:
        self.samples.setdefault(series, []).append(value)

    # -- garbage collection as a span -----------------------------------

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_frame = self.begin()
            self._gc_start = _now()
        else:
            start = self._gc_start
            self.end(self.name_id("process.gc.pause"), self._gc_frame, start)
            self.gc_pauses_ns.append(_now() - start)
            if info.get("generation") == 2:
                self.gen2_collections += 1

    # -- reading ------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates now; two snapshots subtract to a window."""
        return {
            "count": dict(zip(self.names, self.count)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "counts": dict(self.counts),
            "samples": {k: len(v) for k, v in self.samples.items()},
            "gc_pauses": len(self.gc_pauses_ns),
            "gen2": self.gen2_collections,
        }

    def window(self, start: dict, end: dict) -> dict:
        """What was recorded between two :meth:`snapshot` calls."""
        def diff(key: str) -> dict:
            return {
                name: value - start[key].get(name, 0)
                for name, value in end[key].items()
            }

        return {
            "count": diff("count"),
            "self_ns": diff("self_ns"),
            "counts": diff("counts"),
            "samples": {
                name: self.samples[name][start["samples"].get(name, 0):stop]
                for name, stop in end["samples"].items()
            },
            "gc_pauses_ns": self.gc_pauses_ns[
                start["gc_pauses"]:end["gc_pauses"]
            ],
            "gen2": end["gen2"] - start["gen2"],
        }

    def write(self, path: str) -> None:
        """Dump the kept raw spans (``*.spans.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": "ledger-spans/1",
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": self.names,
                    "kept": len(self.spans),
                    "dropped": self.dropped_spans,
                    "spans": [s for s in self.spans if s is not None],
                },
                handle,
            )
            handle.write("\n")


# -- installation ---------------------------------------------------------


_INHERITED = object()


class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _observer_span_name(observer: Callable) -> str:
    module = getattr(observer, "__module__", "") or ""
    if module.startswith("repro.faults"):
        return "faults.invariants.observe"
    if module.startswith("repro."):
        # The cluster's own latency tap: part of delivering a value.
        return "multicast.replica.apply"
    return "bench.driver"


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's entry points for the duration of the block.

    Clusters (live or sim) must be *constructed* inside the block: the
    transport binds the codec functions and the actors bind their
    ``dispatch`` at construction.
    """
    from repro.harness.broadcast import BroadcastClient, BroadcastReplica
    from repro.multicast.api import MulticastClient
    from repro.multicast.elastic import ElasticMerger
    from repro.multicast.replica import MulticastReplica
    from repro.obs.trace import Tracer
    from repro.paxos.acceptor import AcceptorActor
    from repro.paxos.coordinator import CoordinatorActor
    from repro.paxos.learner import LearnerActor
    from repro.paxos.messages import Decision, Propose, RingAccept
    from repro.paxos.types import AppValue, SkipToken
    from repro.runtime import codec
    from repro.runtime.transport import TcpTransport
    from repro.sim.network import Network

    wrap, add, sample = recorder.wrap, recorder.add, recorder.sample
    patches = _Patches()
    proposed_at: dict[int, int] = {}
    learned_at: dict[tuple[int, int], int] = {}

    def coordinator_sees(self, payload, src):
        if payload.__class__ is Propose:
            msg_id = getattr(payload.token, "msg_id", None)
            if msg_id is not None and msg_id % WAIT_SAMPLE_EVERY == 0:
                proposed_at[msg_id] = _now()

    def transport_sends(self, src, dst, payload, size=128):
        if payload.__class__ is not RingAccept or payload.accepted_by != 0:
            return
        # First hop of an instance: the coordinator just closed a batch.
        values = skipped = 0
        for token in payload.batch.tokens:
            if token.__class__ is AppValue:
                values += 1
                started = proposed_at.pop(token.msg_id, None)
                if started is not None:
                    sample("coordinator.batch_wait_ms",
                           (_now() - started) / 1e6)
            elif token.__class__ is SkipToken:
                skipped += token.count
        add("coordinator.instances")
        if values:
            add("coordinator.value_instances")
            add("coordinator.values", values)
        add("skip.positions", skipped)

    def replica_sees(self, payload, src):
        if payload.__class__ is Decision:
            key = id(self)
            now = _now()
            for token in payload.batch.tokens:
                if (token.__class__ is AppValue
                        and token.msg_id % WAIT_SAMPLE_EVERY == 0):
                    learned_at[(key, token.msg_id)] = now

    def replica_applies(self, value, stream, position):
        started = learned_at.pop((id(self), value.msg_id), None)
        if started is not None:
            sample("elastic.merge_wait_ms", (_now() - started) / 1e6)

    def pump_starts(self):
        return self.stats.delivered

    def pump_ends(delivered_before, self):
        add("elastic.pumps")
        if self.stats.delivered > delivered_before:
            add("elastic.useful_pumps")

    def count_emit(self, kind, at, cat=None):
        add("trace.emits")

    add_observer = MulticastReplica.add_delivery_observer

    def add_traced_observer(self, observer):
        add_observer(self, wrap(_observer_span_name(observer), observer))

    for attr, name in (
        ("encode", "runtime.codec.encode"),
        ("encode_into", "runtime.codec.encode"),
        ("decode", "runtime.codec.decode"),
        ("decode_with_context", "runtime.codec.decode"),
    ):
        patches.set(codec, attr, wrap(name, getattr(codec, attr)))
    patches.set(TcpTransport, "send", wrap(
        "runtime.transport.send", TcpTransport.send, before=transport_sends))
    patches.set(Network, "send", wrap(
        "sim.network.send", Network.send, before=transport_sends))
    patches.set(CoordinatorActor, "dispatch", wrap(
        "paxos.coordinator", CoordinatorActor.dispatch,
        before=coordinator_sees))
    # The skip loop and retransmissions enter through propose(), not
    # through a message.
    patches.set(CoordinatorActor, "propose", wrap(
        "paxos.coordinator", CoordinatorActor.propose))
    patches.set(AcceptorActor, "dispatch", wrap(
        "paxos.acceptor", AcceptorActor.dispatch))
    patches.set(LearnerActor, "dispatch", wrap(
        "paxos.learner", LearnerActor.dispatch))
    # A replica hosts its learner tasks: its dispatch *is* the learner
    # (ingest, in-order drain, token-log append); the merge it triggers
    # is a child span.
    patches.set(MulticastReplica, "dispatch", wrap(
        "paxos.learner", MulticastReplica.dispatch, before=replica_sees))
    patches.set(MulticastClient, "dispatch", wrap(
        "multicast.client", MulticastClient.dispatch))
    patches.set(MulticastClient, "multicast", wrap(
        "multicast.client", MulticastClient.multicast))
    patches.set(BroadcastClient, "dispatch", wrap(
        "multicast.client", BroadcastClient.dispatch))
    patches.set(ElasticMerger, "pump", wrap(
        "multicast.elastic.pump", ElasticMerger.pump,
        before=pump_starts, after=pump_ends))
    patches.set(MulticastReplica, "apply", wrap(
        "multicast.replica.apply", MulticastReplica.apply,
        before=replica_applies))
    patches.set(BroadcastReplica, "apply", wrap(
        "multicast.replica.apply", BroadcastReplica.apply))
    patches.set(MulticastReplica, "add_delivery_observer",
                add_traced_observer)
    patches.set(Tracer, "emit", wrap(
        "obs.trace.emit", Tracer.emit, before=count_emit))

    gc.callbacks.append(recorder.gc_callback)
    try:
        yield recorder
    finally:
        gc.callbacks.remove(recorder.gc_callback)
        patches.undo()
