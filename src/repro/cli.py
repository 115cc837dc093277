"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro fig3 [--duration 60] [--seed 1] [--prepare]
    python -m repro fig4 [--duration 60]
    python -m repro fig5 [--duration 70] [--no-prepare]
    python -m repro provisioning
    python -m repro all
    python -m repro faults list
    python -m repro faults run <scenario> [--seed 1] [--seeds N]
    python -m repro elasticity --list
    python -m repro elasticity --scenario ramp [--seed 1] [--dry-run]
    python -m repro trace <experiment> --out trace.jsonl [--categories ...]
    python -m repro stats trace.jsonl
    python -m repro stats metrics.json
    python -m repro validate-trace trace.jsonl
    python -m repro latency trace.jsonl [--out budget.json] [--diff base.json]
    python -m repro live [--streams 2] [--replicas 3] [--duration 5]
                         [--rate 200] [--metrics-out metrics.json]
                         [--nodes 2] [--telemetry-dir DIR] [--clock-skew 0.5]
                         [--profile-dir DIR]
    python -m repro trace-merge n1.trace.jsonl n2.trace.jsonl --out merged.jsonl
    python -m repro top DIR/endpoints.json [--interval 1] [--iterations N]
                        [--timeout 0.5]
    python -m repro trace node.trace.jsonl --follow [--max-events N]
    python -m repro watch RUN_DIR|endpoints.json [--follow] [--out alerts.jsonl]
                          [--fail-on-alert] [--duration N]

Each experiment command runs on the simulator and prints the
paper-vs-measured comparison plus sparkline series; ``faults`` runs a
named fault-injection scenario (see ``docs/FAULTS.md``) under the
always-on safety invariant checkers and prints the invariant report.
``trace`` re-runs an experiment with the observability layer capturing
protocol events to JSONL (see ``docs/OBSERVABILITY.md``); ``stats``
reconstructs per-message causal lifecycles from such a trace and prints
per-stage latency percentiles; ``validate-trace`` checks a trace
against the event schema (the CI smoke test).  ``live`` boots a real
asyncio/TCP cluster (see ``docs/RUNTIME.md``), drives a workload with
a runtime subscribe, and prints the agreement / latency summary;
``stats`` also reads the metrics dump a live run
writes with ``--metrics-out``.  With ``--nodes N --telemetry-dir DIR``
the live cluster is partitioned into N clock domains, each streaming a
node-stamped trace and serving live HTTP metrics/health endpoints;
``trace-merge`` aligns and merges those per-node traces into one
causally-consistent timeline (readable by ``stats`` /
``validate-trace``), and ``top`` renders the endpoints as a live
console (see the "Live mode" section of ``docs/OBSERVABILITY.md``).
``latency`` decomposes each delivered message's end-to-end latency
into named critical-path segments and prints the latency-budget
report (works on sim traces and ``trace-merge``d live traces alike;
see the "Latency attribution" section of ``docs/OBSERVABILITY.md``).
``watch`` is the online safety certifier + anomaly watchdog: point it
at a deploy run directory (tails the per-node traces, certifies prefix
agreement / uniform acyclic order / no lost-or-duplicated deliveries
live) or at an ``endpoints.json`` (polls ``/health``); exits 1 on a
safety violation, and with ``--fail-on-alert`` exits 2 if any anomaly
alert fired (the CI false-positive gate); ``trace FILE --follow``
tails a node's JSONL trace live with the same incremental reader (see
the "Online audit" section of ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["main"]


def _usage_error(message: object) -> int:
    """Report a usage error on stderr; returns its exit status."""
    print(f"error: {message}", file=sys.stderr)
    return 2


_NO_ROUND_TRIP = "no value completed a round trip in {:g} s; run longer"


def _fig3(args) -> int | None:
    from .harness.experiments.vertical import VerticalConfig, run_vertical
    from .harness.report import comparison_table, section, series_sparkline

    try:
        config = VerticalConfig(
            duration=args.duration, seed=args.seed, use_prepare=args.prepare
        )
    except ValueError as exc:       # e.g. a run too short to measure
        return _usage_error(exc)
    result = run_vertical(config)
    if result.latency_p95_ms is None:
        return _usage_error(_NO_ROUND_TRIP.format(config.duration))
    print(section("Figure 3: vertical scalability (add a stream every 15 s)"))
    paper = [735.0, 1498.0, 2391.0, 2660.0]
    rows = [
        (f"interval {i + 1} avg (ops/s)", p, m)
        for i, (p, m) in enumerate(zip(paper, result.interval_averages))
    ]
    rows.append(("scaling factor", 3.62, result.scaling_factor))
    rows.append(("latency p95 (ms)", 8.3, result.latency_p95_ms))
    print(comparison_table(rows))
    print("throughput:", series_sparkline(result.throughput))
    for stream in sorted(result.per_stream):
        print(f"{stream:>10}:", series_sparkline(result.per_stream[stream]))


def _fig4(args) -> int | None:
    from .harness.experiments.horizontal import HorizontalConfig, run_horizontal
    from .harness.report import comparison_table, section, series_sparkline

    try:
        config = HorizontalConfig(duration=args.duration, seed=args.seed)
    except ValueError as exc:
        return _usage_error(exc)
    result = run_horizontal(config)
    ba = result.before_after
    print(section("Figure 4: re-partitioning a key/value store (75% peak load)"))
    print(
        comparison_table(
            [
                ("re-partitioning gap (s)", 1.0, result.gap_duration),
                ("replica 1 ops after/before", 0.5,
                 ba["r1_ops_after"] / ba["r1_ops_before"]),
                ("replica 2 ops after/before", 0.5,
                 ba["r2_ops_after"] / ba["r2_ops_before"]),
                ("replica 1 cpu after/before", 0.5,
                 ba["r1_cpu_after"] / ba["r1_cpu_before"]),
                ("aggregate after/before", 1.0,
                 ba["client_after"] / ba["client_before"]),
            ]
        )
    )
    print("client ops:", series_sparkline(result.client_throughput))
    for name in ("r1", "r2"):
        print(f"{name} applied:", series_sparkline(result.replica_throughput[name]))


def _fig5(args) -> int | None:
    from .harness.experiments.reconfig import ReconfigConfig, run_reconfig
    from .harness.report import comparison_table, section, series_sparkline

    try:
        config = ReconfigConfig(
            duration=args.duration, seed=args.seed,
            use_prepare=not args.no_prepare,
        )
    except ValueError as exc:
        return _usage_error(exc)
    result = run_reconfig(config)
    if result.latency_p95_ms is None:
        return _usage_error(_NO_ROUND_TRIP.format(config.duration))
    print(section("Figure 5: acceptor reconfiguration under full load"))
    print(
        comparison_table(
            [
                ("steady throughput (Mbps)", 550.0, result.throughput_mbps),
                ("latency p95 (ms)", 2.7, result.latency_p95_ms),
                ("switch overhead (fraction)", 0.0, result.overhead_ratio),
                ("client timeouts", 0, result.timeouts),
            ]
        )
    )
    print("total :", series_sparkline(result.throughput))
    for stream in sorted(result.per_stream):
        print(f"{stream:>6}:", series_sparkline(result.per_stream[stream]))


def _provisioning(args) -> None:
    from .harness.experiments.provisioning import (
        ProvisioningConfig,
        run_provisioning,
    )
    from .harness.report import comparison_table, section

    result = run_provisioning(ProvisioningConfig(seed=args.seed))
    print(section("§VI: adding a stream from freshly booted VMs"))
    print(
        comparison_table(
            [
                ("total (s)", 60.0, result.total_seconds),
                ("VM boot (s)", "~55-65",
                 result.vms_active_at - result.requested_at),
                ("subscribe+merge (s)", "(small)",
                 result.first_delivery_at - result.subscribed_at),
            ]
        )
    )


def _faults(args) -> int:
    from .faults.runner import run_scenario
    from .faults.scenarios import SCENARIOS, get_scenario
    from .harness.report import section

    if args.faults_command == "list":
        print(section("Fault-injection scenarios"))
        for name in sorted(SCENARIOS):
            print(f"  {name:<28} {SCENARIOS[name]().description}")
        return 0
    try:
        spec = get_scenario(args.scenario)
    except KeyError as unknown:
        return _usage_error(unknown.args[0])
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        print(section(f"faults: {spec.name} (seed {seed})"))
        try:
            result = run_scenario(spec, seed=seed)
        except AssertionError as violation:
            failures += 1
            print(f"INVARIANT VIOLATION: {violation}")
            print(f"reproduce with: python -m repro faults run "
                  f"{spec.name} --seed {seed}")
            continue
        print(result.report())
    return 1 if failures else 0


def _elasticity(args) -> int:
    from .elasticity.scenarios import SCENARIOS, run_scenario
    from .faults.invariants import InvariantViolation
    from .harness.report import section

    if args.list:
        print(section("Elasticity scenarios"))
        for name in sorted(SCENARIOS):
            print(f"  {name:<16} {SCENARIOS[name].description}")
        return 0
    if args.scenario is None:
        return _usage_error("--scenario NAME required (or --list)")
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        return _usage_error(
            f"unknown scenario {args.scenario!r} (known: {known})"
        )
    print(section(f"elasticity: {args.scenario} (seed {args.seed})"))
    try:
        result = run_scenario(
            args.scenario, seed=args.seed, dry_run=args.dry_run
        )
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}")
        dump = getattr(violation, "dump_path", None)
        if dump:
            print(f"flight recording -> {dump}", file=sys.stderr)
        print(f"reproduce with: python -m repro elasticity "
              f"--scenario {args.scenario} --seed {args.seed}")
        return 1
    print(result.report())
    return 0 if result.ok else 1


_TRACEABLE = ("fig3", "fig4", "fig5", "provisioning")


def _trace_follow(args) -> int:
    """`trace FILE --follow`: tail a live node's JSONL trace, emitting
    each event as it lands -- the same incremental reader the online
    certifier runs on, so torn tails and truncation are tolerated."""
    import time

    from .obs.read import IncrementalTraceReader

    path = args.experiment
    if not os.path.exists(path) and args.idle_timeout is None:
        # Without an idle bound, waiting on a path that never appears
        # would hang forever; catch the typo up front.
        return _usage_error(f"{path}: no such trace file "
                            f"(pass --idle-timeout to wait for it)")
    reader = IncrementalTraceReader(path)
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    emitted = 0
    idle = 0.0
    try:
        while True:
            events = reader.poll()
            for event in events:
                line = json.dumps(event, separators=(",", ":"))
                if out is not None:
                    out.write(line)
                    out.write("\n")
                else:
                    print(line)
                emitted += 1
                if (args.max_events is not None
                        and emitted >= args.max_events):
                    return 0
            if events:
                idle = 0.0
                if out is None:
                    sys.stdout.flush()
            else:
                idle += args.interval
                if (args.idle_timeout is not None
                        and idle >= args.idle_timeout):
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        if out is not None:
            out.close()
        print(f"trace --follow: {emitted} events from {path}"
              + (f" -> {args.out}" if args.out else ""),
              file=sys.stderr)


def _trace(args) -> int:
    from .obs.trace import (
        ALL_CATEGORIES,
        DEFAULT_CATEGORIES,
        JsonlSink,
        Tracer,
        installed,
    )

    if args.follow:
        return _trace_follow(args)
    if args.experiment not in _TRACEABLE:
        return _usage_error(
            f"unknown experiment {args.experiment!r} "
            f"(choose from {', '.join(_TRACEABLE)}, or pass --follow "
            f"with a trace JSONL file to tail)"
        )
    if not args.out:
        return _usage_error("--out is required when running an experiment")
    if args.categories == "default":
        categories = DEFAULT_CATEGORIES
    elif args.categories == "all":
        categories = ALL_CATEGORIES
    else:
        categories = frozenset(
            c.strip() for c in args.categories.split(",") if c.strip()
        )
        unknown = categories - ALL_CATEGORIES
        if unknown:
            return _usage_error(f"unknown categories {sorted(unknown)} "
                                f"(known: {sorted(ALL_CATEGORIES)})")

    # Re-parse the experiment through the real parser so its defaults
    # (duration, prepare flags...) apply exactly as in a direct run.
    sub_argv = [args.experiment, "--seed", str(args.seed)]
    if args.duration is not None and args.experiment != "provisioning":
        sub_argv += ["--duration", str(args.duration)]
    sub_args = build_parser().parse_args(sub_argv)

    sink = JsonlSink(args.out)
    tracer = Tracer(sinks=[sink], categories=categories)
    try:
        with installed(tracer):
            code = _DISPATCH[args.experiment](sub_args)
    finally:
        tracer.close()
    print(f"\ntrace: {sink.written} events -> {args.out}")
    return code or 0


def _stats_metrics_dump(path: str, data: dict) -> int:
    from .harness.report import plain_table, section
    from .obs.metrics import rows_from_dump

    rows = rows_from_dump(data)
    print(section(f"Metrics dump: {path}"))
    print(plain_table(("actor", "metric", "kind", "value"), rows))
    return 0


def _torn_trace(path: str, exc: ValueError) -> int:
    """A trace with a line that does not parse, which is what a kill -9'd
    worker leaves: only the merge tool salvages one."""
    return _usage_error(
        f"{path}: {exc}; salvage it first with: python -m repro "
        f"trace-merge {path} --out merged.jsonl"
    )


def _stats(args) -> int:
    from .harness.report import plain_table, section
    from .obs.metrics import METRICS_DUMP_FORMAT
    from .obs.spans import STAGES, LifecycleIndex
    from .quantiles import percentile

    # `stats` reads both artifact kinds: a trace JSONL (from `trace`)
    # and a JSON metrics dump (from `live --metrics-out`).  A first line
    # that is a whole event is a trace; only anything else is parsed
    # whole, for the dump's format marker.
    with open(args.trace, "rb") as fh:
        try:
            first = json.loads(fh.readline())
        except ValueError:
            first = None
        if not (isinstance(first, dict) and "kind" in first):
            fh.seek(0)
            try:
                data = json.load(fh)
            except ValueError:
                data = None
            if (isinstance(data, dict)
                    and data.get("format") == METRICS_DUMP_FORMAT):
                return _stats_metrics_dump(args.trace, data)

    try:
        index = LifecycleIndex.from_jsonl(args.trace)
    except json.JSONDecodeError as exc:
        return _torn_trace(args.trace, exc)
    complete, delivered = index.coverage()
    print(section(f"Trace statistics: {args.trace}"))
    print(f"events               : {index.events_seen}")
    print(f"messages observed    : {len(index.messages)}")
    print(f"messages delivered   : {delivered}")
    print(f"complete lifecycles  : {complete} "
          f"(submit->deliver path fully reconstructed)")
    samples = index.stage_samples()
    rows = []
    for stage in STAGES:
        latencies = samples[stage]
        if not latencies:
            rows.append((stage, 0, "-", "-", "-", "-"))
            continue
        rows.append((
            stage,
            len(latencies),
            f"{1000 * sum(latencies) / len(latencies):.2f}",
            f"{1000 * percentile(latencies, 50):.2f}",
            f"{1000 * percentile(latencies, 95):.2f}",
            f"{1000 * percentile(latencies, 99):.2f}",
        ))
    print()
    print(plain_table(
        ("stage", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms"), rows
    ))
    if index.subscriptions:
        print()
        sub_rows = []
        for request_id in sorted(index.subscriptions):
            timeline = index.subscriptions[request_id]
            duration = timeline.switch_duration
            points = sorted(set(timeline.merge_points.values()))
            sub_rows.append((
                request_id,
                timeline.kind,
                timeline.group or "-",
                timeline.stream or "-",
                "-" if duration is None else f"{1000 * duration:.2f}",
                ",".join(str(p) for p in points) if points else "-",
            ))
        print(plain_table(
            ("request", "kind", "group", "stream", "switch ms", "merge point"),
            sub_rows,
        ))
    return 0


def _validate_trace(args) -> int:
    from .obs.schema import SchemaError, validate_file

    try:
        count = validate_file(args.trace)
    except SchemaError as exc:
        print(f"INVALID: {args.trace}: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {args.trace}: {count} schema-valid events")
    return 0


def _latency(args) -> int:
    from .harness.report import section
    from .obs.spans import LifecycleIndex
    from .obs.critpath import (
        budget_lines,
        diff_budgets,
        latency_budget,
        load_budget,
        write_budget,
    )

    try:
        index = LifecycleIndex.from_jsonl(args.trace)
    except json.JSONDecodeError as exc:
        return _torn_trace(args.trace, exc)
    budget = latency_budget(index)
    print(section(f"Latency budget: {args.trace}"))
    for line in budget_lines(budget):
        print(line)
    if args.diff:
        try:
            baseline = load_budget(args.diff)
        except ValueError as exc:
            return _usage_error(exc)
        print()
        print(f"diff vs {args.diff}:")
        for line in diff_budgets(baseline, budget):
            print(line)
    if args.out:
        write_budget(budget, args.out)
        print(f"\nbudget -> {args.out}")
    return 0 if budget["messages"]["complete"] else 1


def _live(args) -> int:
    from .harness.report import plain_table, section
    from .obs.metrics import MetricsRegistry
    from .obs.trace import installed
    from .runtime.supervisor import LiveConfig, run_live

    config = LiveConfig(
        streams=args.streams,
        replicas=args.replicas,
        duration=args.duration,
        rate=args.rate,
        metrics_out=args.metrics_out,
        nodes=args.nodes,
        telemetry_dir=args.telemetry_dir,
        clock_skew=args.clock_skew,
        autoscale=args.autoscale,
        rate_ramp=args.rate_ramp,
        autoscale_ceiling=args.autoscale_ceiling,
        profile_dir=args.profile_dir,
        dissemination=args.dissemination,
        adaptive_batching=not args.no_adaptive_batch,
        lam=args.lam,
        burst=args.burst,
        uvloop=args.uvloop,
    )
    print(section(
        f"live: {config.streams} streams x {config.replicas} replicas "
        f"on {config.nodes} node{'s' if config.nodes != 1 else ''} "
        f"over localhost TCP for {config.duration:g} s"
    ))
    if config.telemetry_dir is not None:
        # Per-node registries replace the process-wide one; no install.
        report = run_live(config)
    else:
        with installed(metrics=MetricsRegistry()):
            report = run_live(config)
    print(report.summary())
    print(f"datapath: {report.dissemination} dissemination | "
          f"adaptive batching "
          f"{'on' if config.adaptive_batching else 'off'} | "
          f"event loop {report.event_loop}")
    for event in report.autoscale_events:
        print(f"  autoscale: {event}")
    rows = [
        (name, str(count))
        for name, count in sorted(report.delivered_per_replica.items())
    ]
    rows += [
        (f"transport {name}", str(value))
        for name, value in sorted(report.transport_counters.items())
    ]
    print()
    print(plain_table(("replica / counter", "delivered"), rows))
    for violation in report.violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
    for failure in report.kernel_failures:
        print(f"KERNEL FAILURE: {failure}", file=sys.stderr)
    for dump in report.flight_dumps:
        print(f"flight recording -> {dump}", file=sys.stderr)
    if args.metrics_out:
        print(f"\nmetrics -> {args.metrics_out} "
              f"(read with `python -m repro stats {args.metrics_out}`)")
    if report.node_traces:
        traces = " ".join(
            report.node_traces[node] for node in sorted(report.node_traces)
        )
        print(f"\nper-node traces: {traces}")
        print(f"merge with: python -m repro trace-merge {traces} "
              f"--out merged.trace.jsonl")
    if report.profile_files:
        print("\nprofiles (flamegraph-compatible collapsed stacks):")
        for node in sorted(report.profile_files):
            print(f"  {node}: {report.profile_files[node]}")
    return 0 if report.ok else 1


def _deploy(args) -> int:
    from .deploy.chaos import SCENARIOS
    from .deploy.supervisor import DeployConfig, run_deploy
    from .harness.report import plain_table, section

    if args.list_scenarios:
        rows = [
            (name, drill.description)
            for name, drill in sorted(SCENARIOS.items())
        ]
        print(plain_table(("scenario", "what it does"), rows))
        return 0
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; "
              f"pick from {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    spec = SCENARIOS[args.scenario].topology(
        nodes=args.nodes,
        streams=args.streams,
        replicas=args.replicas,
        duration=args.duration,
        rate=args.rate,
        burst=args.burst,
        profile=args.profile,
    )
    run_dir = args.run_dir or os.path.join("deploy-runs", args.scenario)
    config = DeployConfig(
        spec=spec,
        run_dir=run_dir,
        scenario=args.scenario,
        address_file=args.address_file,
        verbose=args.verbose,
    )
    print(section(
        f"deploy: {len(spec.nodes)} worker processes, "
        f"{len(spec.streams)} streams x {len(spec.all_replicas())} "
        f"replicas, scenario {args.scenario}"
    ))
    report = run_deploy(config)
    if not args.verbose:
        print(report.summary())
    traces = [
        trace
        for entry in report.manifest["nodes"].values()
        for trace in entry["trace_files"]
    ]
    if traces:
        print(f"\nmerge the timeline with: python -m repro trace-merge "
              f"{' '.join(traces)} --out {os.path.join(run_dir, 'merged.trace.jsonl')}")
    print(f"manifest: {report.manifest_path}")
    return 0 if report.ok else 1


def _worker(args) -> int:
    from .deploy.worker import worker_main

    return worker_main(args)


def _trace_merge(args) -> int:
    from .obs.merge import cross_node_messages, merge_files

    events = merge_files(args.traces, out=args.out)
    nodes = sorted({e.get("node") for e in events if e.get("node")})
    spanning = cross_node_messages(events)
    print(f"trace-merge: {len(events)} events from "
          f"{len(nodes)} nodes ({', '.join(nodes)}) -> {args.out}")
    print(f"messages observed on more than one node: {len(spanning)}")
    print(f"validate with: python -m repro validate-trace {args.out}")
    return 0


def _top(args) -> int:
    from .runtime.console import run_top

    endpoints = args.endpoints
    if os.path.isdir(endpoints):
        endpoints = os.path.join(endpoints, "endpoints.json")
    return run_top(
        endpoints,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
        timeout=args.timeout,
    )


def _watch_report(tick: dict) -> None:
    for violation in tick.get("violations", ()):
        print(f"VIOLATION [{violation.property}] {violation.message}")
    for alert in tick.get("raised", ()):
        print(f"ALERT [{alert.severity}] {alert.detector}"
              f"{'/' + alert.key if alert.key else ''}: {alert.message}")
    for alert in tick.get("cleared", ()):
        print(f"clear {alert.detector}"
              f"{'/' + alert.key if alert.key else ''}")


def _watch(args) -> int:
    """`watch`: online safety certifier + anomaly watchdog (see the
    "Online audit" section of docs/OBSERVABILITY.md).

    Exit codes: 0 clean, 1 safety violation proven, 2 with
    --fail-on-alert when any anomaly alert fired (the CI
    zero-false-positive gate), or usage error.
    """
    import time

    from .harness.report import section
    from .obs.watch import EndpointsWatch, TraceWatch

    target = args.target
    endpoints_mode = False
    if os.path.isfile(target) and target.endswith(".json"):
        from .runtime.console import load_endpoints

        try:
            endpoints = load_endpoints(target)
        except (ValueError, KeyError) as exc:
            return _usage_error(f"{target}: {exc}")
        mode = f"polling {len(endpoints)} endpoints from {target}"
        watch = EndpointsWatch(
            endpoints, clock=time.time, out=args.out,
            timeout=args.timeout,
        )
        endpoints_mode = True
    elif os.path.isdir(target) or os.path.isfile(target):
        directory = os.path.isdir(target)
        mode = f"certifying trace {'dir ' if directory else ''}{target}"
        watch = TraceWatch(
            directory=target if directory else None,
            paths=None if directory else [target], out=args.out,
            stall_after=args.stall_after,
            reconfig_bound=args.reconfig_bound,
        )
    else:
        return _usage_error(f"{target}: not a run directory, trace file or "
                            f"endpoints.json")

    print(section(f"watch: {mode}"))
    deadline = (
        None if args.duration is None else time.monotonic() + args.duration
    )
    try:
        if endpoints_mode or args.follow:
            # Live mode: keep polling until Ctrl-C or --duration.
            while deadline is None or time.monotonic() < deadline:
                tick = watch.step()
                _watch_report(tick)
                if endpoints_mode or not tick.get("events"):
                    time.sleep(args.interval)
        else:
            for tick in watch.drain():
                _watch_report(tick)
    except KeyboardInterrupt:
        pass
    summary = watch.close()

    violations = summary.get("violations", [])
    worker_violations = summary.get("worker_violations", [])
    alerts = summary.get("alerts", [])
    print(f"events observed     : {summary.get('events', len(alerts))}")
    streams = summary.get("streams")
    if streams:
        print(f"streams             : {', '.join(streams)}")
        marks = summary.get("watermarks", {})
        for stream in streams:
            mark = marks.get(stream, {})
            print(f"  {stream:<8} low {mark.get('low', '-')} "
                  f"high {mark.get('high', '-')}")
    print(f"safety violations   : {len(violations)}")
    print(f"worker violations   : {len(worker_violations)}")
    print(f"alerts raised       : {len(alerts)} "
          f"({len(summary.get('active_alerts', []))} still active)")
    print(f"health score        : {summary.get('health_score', '-')}")
    if args.out:
        print(f"alert log -> {args.out} "
              f"(validate with: python -m repro validate-trace {args.out})")
    if violations or worker_violations:
        print("SAFETY VIOLATION", file=sys.stderr)
        return 1
    if args.fail_on_alert and alerts:
        print("ALERTS RAISED (--fail-on-alert)", file=sys.stderr)
        return 2
    print("certified: no safety violations observed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Elastic Paxos (ICDCS 2017) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="vertical scalability (Fig. 3)")
    fig3.add_argument("--duration", type=float, default=60.0)
    fig3.add_argument("--prepare", action="store_true",
                      help="use the prepare_msg hint (the paper does not)")

    fig4 = sub.add_parser("fig4", help="key/value store re-partitioning (Fig. 4)")
    fig4.add_argument("--duration", type=float, default=60.0)

    fig5 = sub.add_parser("fig5", help="acceptor reconfiguration (Fig. 5)")
    fig5.add_argument("--duration", type=float, default=70.0)
    fig5.add_argument("--no-prepare", action="store_true",
                      help="skip the prepare_msg hint (shows the stall)")

    sub.add_parser("provisioning", help="~60 s stream provisioning (§VI)")
    sub.add_parser("all", help="run every experiment")

    faults = sub.add_parser(
        "faults", help="fault injection under invariant checking"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser("list", help="list the named scenarios")
    faults_run = faults_sub.add_parser(
        "run", help="run a scenario and print the invariant report"
    )
    faults_run.add_argument("scenario", help="scenario name (see `faults list`)")
    faults_run.add_argument("--seed", type=int, default=1)
    faults_run.add_argument(
        "--seeds", type=int, default=1,
        help="run this many consecutive seeds starting at --seed",
    )

    elasticity = sub.add_parser(
        "elasticity",
        help="closed-loop autoscaler acceptance scenarios "
             "(docs/ELASTICITY.md)",
    )
    elasticity.add_argument("--scenario", default=None,
                            help="scenario name (see --list)")
    elasticity.add_argument("--list", action="store_true",
                            help="list the named scenarios")
    elasticity.add_argument("--dry-run", action="store_true",
                            help="advisory mode: record decisions, "
                                 "execute nothing")

    trace = sub.add_parser(
        "trace", help="run an experiment with trace capture to JSONL, "
                      "or tail a live trace file with --follow"
    )
    trace.add_argument("experiment",
                       help=f"experiment to run under tracing "
                            f"({', '.join(_TRACEABLE)}), or with "
                            f"--follow a trace JSONL file to tail")
    trace.add_argument("--out", default=None,
                       help="output JSONL path (required for "
                            "experiments; optional tee for --follow)")
    trace.add_argument("--duration", type=float, default=None,
                       help="override the experiment's default duration")
    trace.add_argument(
        "--categories", default="default",
        help="'default', 'all', or a comma-separated category list "
             "(net/sim/dispatch are the opt-in firehoses)",
    )
    trace.add_argument("--follow", action="store_true",
                       help="tail the given trace JSONL file live "
                            "(tolerates torn tails and truncation)")
    trace.add_argument("--interval", type=float, default=0.2,
                       help="with --follow: poll period in seconds "
                            "(default 0.2)")
    trace.add_argument("--max-events", type=int, default=None,
                       help="with --follow: stop after emitting this "
                            "many events")
    trace.add_argument("--idle-timeout", type=float, default=None,
                       help="with --follow: stop after this many "
                            "seconds without new events")

    stats = sub.add_parser(
        "stats", help="per-stage latency report from a recorded trace"
    )
    stats.add_argument("trace", help="trace JSONL file (from `trace`)")

    validate = sub.add_parser(
        "validate-trace", help="check a trace against the event schema"
    )
    validate.add_argument("trace", help="trace JSONL file to validate")

    latency = sub.add_parser(
        "latency",
        help="critical-path latency budget from a recorded trace",
    )
    latency.add_argument(
        "trace",
        help="trace JSONL file (from `trace` or `trace-merge`)",
    )
    latency.add_argument("--out", default=None,
                         help="write the JSON budget report here")
    latency.add_argument("--diff", default=None,
                         help="compare against a saved budget JSON")

    live = sub.add_parser(
        "live",
        help="run a real asyncio/TCP cluster with a runtime subscribe "
             "(docs/RUNTIME.md)",
    )
    live.add_argument("--streams", type=int, default=2,
                      help="number of Paxos streams (default 2)")
    live.add_argument("--replicas", type=int, default=3,
                      help="replicas in the group (default 3)")
    live.add_argument("--duration", type=float, default=5.0,
                      help="workload wall seconds (default 5)")
    live.add_argument("--rate", type=float, default=200.0,
                      help="client multicasts per second (default 200)")
    live.add_argument("--metrics-out", default=None,
                      help="write a JSON metrics dump here "
                           "(readable by `stats`)")
    live.add_argument("--nodes", type=int, default=1,
                      help="clock/transport domains to partition the "
                           "cluster into (default 1)")
    live.add_argument("--telemetry-dir", default=None,
                      help="write per-node traces + endpoints.json here "
                           "and serve live HTTP metrics/health endpoints")
    live.add_argument("--clock-skew", type=float, default=0.0,
                      help="artificial clock skew between nodes in "
                           "seconds (exercises trace-merge alignment)")
    live.add_argument("--autoscale", action="store_true",
                      help="closed-loop subscription: an autoscaler "
                           "polls telemetry and subscribes spare "
                           "streams under load (docs/ELASTICITY.md)")
    live.add_argument("--rate-ramp", type=float, default=None,
                      help="linearly ramp the client rate from --rate "
                           "to this value over the run")
    live.add_argument("--autoscale-ceiling", type=float, default=150.0,
                      help="decided values/s per stream that triggers "
                           "a subscription (default 150)")
    live.add_argument("--profile-dir", default=None,
                      help="run the per-node stack sampler and write "
                           "flamegraph-compatible collapsed stacks to "
                           "DIR/<node>.stacks.txt")
    live.add_argument("--dissemination", choices=("ring", "classic"),
                      default="ring",
                      help="phase-2 dissemination over TCP: ring "
                           "(coordinator->acceptor ring, default) or "
                           "classic (fan-out/fan-in)")
    live.add_argument("--no-adaptive-batch", action="store_true",
                      help="disable load-adaptive coordinator batching "
                           "and keep the fixed sim-default trigger")
    live.add_argument("--lam", type=int, default=None,
                      help="per-stream λ (positions/s) for skip pacing; "
                           "default scales with the offered rate")
    live.add_argument("--burst", type=int, default=1,
                      help="client submissions per workload tick "
                           "(amortises sleep granularity at high rates)")
    live.add_argument("--uvloop", action="store_true",
                      help="drive the cluster with uvloop when installed "
                           "(soft dependency; falls back to asyncio)")

    deploy = sub.add_parser(
        "deploy",
        help="run the cluster as real OS processes with live chaos "
             "injection (docs/DEPLOY.md)",
    )
    deploy.add_argument("--scenario", default="baseline",
                        help="chaos scenario: baseline, kill9, partition, "
                             "clock-skew, rolling-replace (default "
                             "baseline); --list-scenarios to describe")
    deploy.add_argument("--list-scenarios", action="store_true",
                        help="describe the scenarios and exit")
    deploy.add_argument("--nodes", type=int, default=3,
                        help="worker processes (default 3)")
    deploy.add_argument("--streams", type=int, default=2,
                        help="number of Paxos streams (default 2)")
    deploy.add_argument("--replicas", type=int, default=3,
                        help="replicas in the group (default 3)")
    deploy.add_argument("--duration", type=float, default=4.0,
                        help="workload wall seconds (default 4)")
    deploy.add_argument("--rate", type=float, default=200.0,
                        help="client multicasts per second (default 200)")
    deploy.add_argument("--burst", type=int, default=1,
                        help="client submissions per workload tick")
    deploy.add_argument("--run-dir", default=None,
                        help="run directory for the spec, traces, logs, "
                             "metrics and manifest (default: "
                             "deploy-runs/<scenario>)")
    deploy.add_argument("--address-file", default=None,
                        help="JSON map of pre-started remote workers' "
                             "control addresses; connect instead of "
                             "spawning children (docs/DEPLOY.md)")
    deploy.add_argument("--profile", action="store_true",
                        help="run each worker's stack sampler and write "
                             "collapsed stacks into the run directory")
    deploy.add_argument("--verbose", action="store_true",
                        help="stream supervisor progress as it happens")

    worker = sub.add_parser(
        "worker",
        help="one deployment worker process (spawned by `deploy`; "
             "start manually for --address-file mode)",
    )
    worker.add_argument("--spec", required=True,
                        help="topology spec JSON written by the supervisor")
    worker.add_argument("--node", required=True,
                        help="which node of the spec this process hosts")
    worker.add_argument("--run-dir", required=True,
                        help="directory for this node's trace/log/flight "
                             "files")
    worker.add_argument("--ready-file", default=None,
                        help="write a JSON ready marker (control address, "
                             "pid) here once listening")
    worker.add_argument("--control-host", default="127.0.0.1",
                        help="node endpoint (ops + telemetry) bind host "
                             "(default 127.0.0.1)")
    worker.add_argument("--control-port", type=int, default=0,
                        help="node endpoint bind port (default: ephemeral)")
    worker.add_argument("--transport-host", default="127.0.0.1",
                        help="data transport bind host (default 127.0.0.1)")
    worker.add_argument("--incarnation", type=int, default=0,
                        help="restart generation (stamps the trace node id)")

    merge = sub.add_parser(
        "trace-merge",
        help="merge per-node live traces into one aligned timeline",
    )
    merge.add_argument("traces", nargs="+",
                       help="per-node trace JSONL files (from `live "
                            "--telemetry-dir`)")
    merge.add_argument("--out", required=True,
                       help="output JSONL path for the merged timeline")

    top = sub.add_parser(
        "top", help="live console over a running cluster's endpoints"
    )
    top.add_argument("endpoints",
                     help="endpoints.json written by `live "
                          "--telemetry-dir` (or the directory itself)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds (default 1)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after this many frames (default: forever)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.add_argument("--timeout", type=float, default=0.5,
                     help="per-node scrape timeout in seconds (default "
                          "0.5); a dead node renders as unreachable "
                          "instead of freezing the console")

    watch = sub.add_parser(
        "watch",
        help="online safety certifier + anomaly watchdog over a run "
             "(docs/OBSERVABILITY.md, 'Online audit')",
    )
    watch.add_argument("target",
                       help="deploy run directory (tails its "
                            "*.trace.jsonl files), a single trace JSONL "
                            "file, or an endpoints.json (polls /health)")
    watch.add_argument("--follow", action="store_true",
                       help="keep tailing until Ctrl-C / --duration "
                            "instead of stopping at end of input")
    watch.add_argument("--interval", type=float, default=0.2,
                       help="poll period in seconds (default 0.2)")
    watch.add_argument("--duration", type=float, default=None,
                       help="stop after this many wall seconds")
    watch.add_argument("--out", default=None,
                       help="write schema-valid audit.*/alert.* records "
                            "to this JSONL alert log")
    watch.add_argument("--stall-after", type=float, default=2.0,
                       help="watermark/quorum stall bound in trace "
                            "seconds (default 2)")
    watch.add_argument("--reconfig-bound", type=float, default=5.0,
                       help="reconfiguration commit-liveness bound in "
                            "trace seconds (default 5)")
    watch.add_argument("--timeout", type=float, default=0.5,
                       help="per-node scrape timeout (endpoints mode)")
    watch.add_argument("--fail-on-alert", action="store_true",
                       help="exit 2 if any anomaly alert was raised "
                            "(the CI zero-false-positive gate)")

    for name, p in sub.choices.items():
        # Live runs are wall-clock and nondeterministic: no --seed.
        if name in ("faults", "stats", "validate-trace", "latency", "live",
                    "trace-merge", "top", "deploy", "worker", "watch"):
            continue
        p.add_argument("--seed", type=int, default=1)
        if name in ("provisioning", "all"):
            p.set_defaults(duration=None)
    return parser


_DISPATCH = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "provisioning": _provisioning,
    "faults": _faults,
    "elasticity": _elasticity,
    "trace": _trace,
    "stats": _stats,
    "validate-trace": _validate_trace,
    "latency": _latency,
    "live": _live,
    "deploy": _deploy,
    "worker": _worker,
    "trace-merge": _trace_merge,
    "top": _top,
    "watch": _watch,
}


def _all(args) -> int:
    """Run every experiment, each re-parsed through the real parser so
    per-command defaults and flags apply exactly as in a direct run."""
    parser = build_parser()
    status = 0
    for name in ("fig3", "fig4", "fig5", "provisioning"):
        sub_args = parser.parse_args([name, "--seed", str(args.seed)])
        code = _DISPATCH[name](sub_args)
        if code:
            status = code
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "all":
        return _all(args)
    handler = _DISPATCH[args.command]
    return handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
