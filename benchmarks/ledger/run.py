#!/usr/bin/env python3
"""The performance ledger's one command.

One workload, as the benchmark contract in BENCHMARK.json runs it::

    python3 benchmarks/ledger/run.py --workload live_closed_small \\
        --seed 7 --seconds 30 --trace 0

prints every metric by name and unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload both ways
and, with ``--out FILE``, writes the report ``compare.py`` reads (and
the traced repetitions' raw spans to ``FILE``'s siblings
``*.<workload>.spans.json``).

A run makes fixed-count repetitions (see workloads.py), each in a fresh
child process with a fresh cluster, until the next one would not end
within ``--seconds``.  It exits non-zero, with no timing printed, when
a repetition's outputs are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import workloads

# The program under measurement: the checkout's own source tree.
SOURCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
RUN_SECONDS = 30                # BENCHMARK.json's run_seconds
SETUP_ONLY_CHILDREN = 4         # extra samples of setup_s per run
REPETITION_TIMEOUT_S = 150.0
# A traced sim_fig3 repetition at paper length would not fit a run next
# to the untraced one it is compared with; per-value costs do not
# depend on the length, so both run at a third of it.
TRACED_SIM_SCALE = 1 / 3
LATE_LIMIT_MS = 100.0


def _child(spec: dict) -> dict:
    """One repetition (or one set-up) in a fresh process."""
    # A fixed hash seed: set and dict order, hence the heap's layout,
    # repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, spawned_at=time.time())
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        out, _ = process.communicate(timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return {"correct": False, "attempted": 1, "failed": 1,
                "errors": [f"no result within {REPETITION_TIMEOUT_S:.0f} s"]}
    if process.returncode != 0 or not out.strip():
        return {"correct": False, "attempted": 1, "failed": 1,
                "errors": [f"child exited with code {process.returncode}"]}
    return json.loads(out.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool,
            spans_out: str | None = None) -> dict:
    """One run of workload ``name``: repetitions until ``seconds`` are
    used, folded.  With ``trace`` the repetitions alternate untraced and
    traced; the per-layer table is the traced repetition of median CPU
    per value (one repetition, so that its rows still add up)."""
    began = time.monotonic()
    load = os.getloadavg()[0]       # /proc/loadavg's 1-minute figure
    spec = {"name": name, "seed": seed, "scale": 1.0, "traced": False}
    if trace and name == "sim_fig3":
        spec["scale"] = TRACED_SIM_SCALE
    setups = [
        _child(dict(spec, first_delivery_only=True))
        for _ in range(0 if trace else SETUP_ONLY_CHILDREN)
    ]
    plain, traced, longest = [], [], 0.0
    while True:
        tracing_now = trace and len(plain) > len(traced)
        started = time.monotonic()
        result = _child(dict(
            spec, traced=tracing_now,
            spans_out=spans_out if tracing_now else None,
        ))
        (traced if tracing_now else plain).append(result)
        if not result["correct"]:
            break
        longest = max(longest, time.monotonic() - started)
        enough = bool(traced) or not trace
        if enough and time.monotonic() - began + longest > seconds:
            break

    repetitions = plain + traced
    run = {
        "workload": name, "seed": seed, "traced": trace,
        "repetitions": len(repetitions),
        "attempted": sum(r["attempted"] for r in repetitions),
        "failed": sum(r["failed"] for r in repetitions),
        "errors": [
            e for r in setups + repetitions for e in r.get("errors", ())
        ],
        "loadavg_at_start": load,
    }
    digests = {r["info"].get("digest") for r in repetitions if r["correct"]}
    if len(digests) > 1:
        run["errors"].append("result digest differs between repetitions")
        run["failed"] = run["attempted"]
    run["correct"] = not run["errors"]
    if not run["correct"]:
        return run

    run["event_loop"] = repetitions[0]["info"]["event_loop"]
    run["machine_slowdown"] = [
        r["info"]["machine_slowdown"] for r in repetitions
    ]
    late = max(r["info"]["bench.generator_late_ms_p99"] for r in repetitions)
    run["unresolved"] = [
        reason for reason, holds in (
            (f"generator {late:.0f} ms late at p99", late > LATE_LIMIT_MS),
            (f"loadavg {load:.2f} above nproc", load > (os.cpu_count() or 1)),
        ) if holds
    ]
    end_to_end = workloads.fold(plain, [s["setup_s"] for s in setups])
    if not trace:
        run["metrics"] = {
            metric: dict(row, unit=workloads.END_TO_END[metric])
            for metric, row in end_to_end.items()
        }
        return run
    by_cpu = sorted(
        traced, key=lambda r: r["per_layer"][workloads.TRACED_CPU]
    )
    table = dict(by_cpu[(len(by_cpu) - 1) // 2]["per_layer"])
    table["bench.trace_overhead_share"] = (
        table[workloads.TRACED_CPU] / end_to_end["cpu_us_per_value"]["value"]
        - 1.0
    )
    run["metrics"] = {
        metric: {"value": table[metric], "unit": unit}
        for metric, unit in workloads.PER_LAYER.items()
    }
    return run


def _print_run(run: dict) -> None:
    print(f"# {run['workload']} seed {run['seed']} "
          f"{'traced' if run['traced'] else 'untraced'}: "
          f"{run['repetitions']} repetitions, {run['attempted']} operations, "
          f"{run['failed']} failed")
    for error in run["errors"]:
        print(f"INCORRECT: {error}")
    for reason in run.get("unresolved", ()):
        print(f"UNRESOLVED: {reason}")
    for name, row in run.get("metrics", {}).items():
        spread = (f"  [{row['low']:.6g} .. {row['high']:.6g}]"
                  if "low" in row else "")
        print(f"{name:50s} {row['value']:14.6g} {row['unit']}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the report here (JSON)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"run.py: nothing to measure: no {SOURCE}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    if args.child is not None:
        print(json.dumps(workloads.run_workload(**json.loads(args.child))))
        return 0

    report = {
        "schema": "ledger-report/1", "seed": args.seed,
        "run_seconds": args.seconds,
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    if args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    for name, trace in runs:
        spans = (f"{os.path.splitext(args.out)[0]}.{name}.spans.json"
                 if args.out and trace else None)
        run = measure(name, args.seed, args.seconds, trace, spans)
        _print_run(run)
        entry = report["workloads"].setdefault(name, {})
        entry["per_layer" if trace else "end_to_end"] = run
        report["machine"].setdefault("event_loop", {})[name] = run.get(
            "event_loop")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    correct = all(
        run["correct"]
        for entry in report["workloads"].values() for run in entry.values()
    )
    if args.workload:
        print(json.dumps({
            "correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]}
                for name, row in run.get("metrics", {}).items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
