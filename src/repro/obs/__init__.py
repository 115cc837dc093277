"""Observability layer: tracing, lifecycle spans, metrics, flight recorder.

See ``docs/OBSERVABILITY.md`` for the guide.  The usual entry points:

- :class:`Tracer` + :func:`installed` -- capture structured protocol
  events into sinks (:class:`JsonlSink`, :class:`ListSink`,
  :class:`FlightRecorder`).
- :class:`LifecycleIndex` -- correlate a trace into per-message causal
  spans and per-stage latency samples.
- :class:`MetricsRegistry` -- per-actor counters / gauges / histograms.
- :func:`latency_budget` -- critical-path latency attribution over a
  :class:`LifecycleIndex` (``python -m repro latency``).
- :func:`validate_file` -- JSONL trace schema validation (used by CI).
"""

from .audit import (
    AuditViolation,
    IncrementalTraceReader,
    SafetyCertifier,
    TraceDirectorySource,
)
from .critpath import (
    BUDGET_FORMAT,
    SEGMENTS,
    CriticalPath,
    budget_lines,
    diff_budgets,
    extract_critical_paths,
    latency_budget,
)
from .merge import (
    cross_node_messages,
    merge_events,
    merge_files,
    read_trace,
    trace_offsets,
    write_trace,
)
from .metrics import (
    METRICS_DUMP_FORMAT,
    Gauge,
    MetricsRegistry,
    rows_from_dump,
)
from .recorder import FlightRecorder
from .schema import EVENT_SCHEMA, SchemaError, validate_event, validate_file
from .spans import STAGES, LifecycleIndex, MessageLifecycle, SubscriptionTimeline
from .watch import (
    Alert,
    EndpointsWatch,
    TraceWatch,
    Watchdog,
    default_node_detectors,
    default_trace_detectors,
)
from .trace import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    JsonlSink,
    ListSink,
    Tracer,
    current_metrics,
    current_tracer,
    install,
    install_metrics,
    installed,
    uninstall,
    uninstall_metrics,
)

__all__ = [
    "ALL_CATEGORIES",
    "Alert",
    "AuditViolation",
    "BUDGET_FORMAT",
    "CriticalPath",
    "EndpointsWatch",
    "IncrementalTraceReader",
    "SafetyCertifier",
    "TraceDirectorySource",
    "TraceWatch",
    "Watchdog",
    "default_node_detectors",
    "default_trace_detectors",
    "DEFAULT_CATEGORIES",
    "EVENT_SCHEMA",
    "SEGMENTS",
    "budget_lines",
    "diff_budgets",
    "extract_critical_paths",
    "latency_budget",
    "FlightRecorder",
    "Gauge",
    "JsonlSink",
    "LifecycleIndex",
    "ListSink",
    "METRICS_DUMP_FORMAT",
    "MessageLifecycle",
    "MetricsRegistry",
    "STAGES",
    "rows_from_dump",
    "SchemaError",
    "SubscriptionTimeline",
    "Tracer",
    "cross_node_messages",
    "current_metrics",
    "current_tracer",
    "install",
    "merge_events",
    "merge_files",
    "read_trace",
    "trace_offsets",
    "write_trace",
    "install_metrics",
    "installed",
    "uninstall",
    "uninstall_metrics",
    "validate_event",
    "validate_file",
]
