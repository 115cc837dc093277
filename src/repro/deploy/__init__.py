"""Multi-process deployment plane for the live runtime.

``python -m repro deploy`` runs the live cluster as **real OS
processes**: a supervisor (:mod:`repro.deploy.supervisor`) spawns one
worker process per node (``python -m repro worker``, see
:mod:`repro.deploy.worker`), hands the run driver
(:mod:`repro.runtime.driver`) each worker's node endpoint -- the one
HTTP listener that serves its op table and its telemetry -- to wire /
drive / drain / judge them over, and collects every node's trace,
metrics and profile files into one run directory.  The drills
(:mod:`repro.deploy.chaos`) are fault schedules played on it -- see
docs/DEPLOY.md.

This ``__init__`` imports nothing: the wire codec
(:mod:`repro.runtime.codec`) registers :mod:`repro.deploy.wire`'s
message classes at import time, which must not drag the rest of the
deployment plane (or, transitively, ``repro.sim``) in.
"""
