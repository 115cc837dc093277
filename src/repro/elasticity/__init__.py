"""Closed-loop elasticity: observe the telemetry plane, decide against
declarative policies, and autonomously issue the paper's
reconfigurations (subscribe a new stream, split a hot shard's key
range, replace a slow acceptor ring).

The loop is ``signals -> policy -> controller -> actions``:

* :mod:`~repro.elasticity.signals` samples the telemetry plane into
  immutable snapshots (sim: the metrics registry; live: the per-node
  HTTP endpoints);
* :mod:`~repro.elasticity.policy` evaluates declarative rules with
  hysteresis, cooldowns and a dry-run mode;
* :mod:`~repro.elasticity.controller` ticks on a timer and traces
  every decision as ``elastic.*`` events;
* :mod:`~repro.elasticity.actions` executes reconfigurations through
  the existing coordination layer;
* :mod:`~repro.elasticity.router` moves traffic only after the target
  subscription commits;
* :mod:`~repro.elasticity.scenarios` is the acceptance harness:
  deterministic closed-loop scenarios with the full invariant suite
  attached (``repro elasticity --scenario ramp``).

See docs/ELASTICITY.md for the operator-facing guide.
"""
