"""Observability layer: tracing, lifecycle spans, metrics, flight recorder.

See ``docs/OBSERVABILITY.md`` for the guide.  The usual entry points:

- :class:`~repro.obs.trace.Tracer` + :func:`~repro.obs.trace.installed`
  -- capture structured protocol events into sinks
  (:class:`~repro.obs.trace.JsonlSink`, :class:`~repro.obs.trace.ListSink`,
  :class:`~repro.obs.recorder.FlightRecorder`).
- :class:`~repro.obs.spans.LifecycleIndex` -- correlate a trace into
  per-message causal spans and per-stage latency samples.
- :class:`~repro.obs.metrics.MetricsRegistry` -- per-actor counters /
  gauges / histograms.
- :func:`~repro.obs.critpath.latency_budget` -- critical-path latency
  attribution over a ``LifecycleIndex`` (``python -m repro latency``).
- :func:`~repro.obs.schema.validate_file` -- JSONL trace schema
  validation (used by CI).
"""
