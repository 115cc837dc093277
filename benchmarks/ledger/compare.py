#!/usr/bin/env python3
"""Hold one ledger report against another: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change; both are written by
``run.py --out``.  Every workload x end-to-end metric is one row with
its ratio B/A, the base value the ratio stands on, and a verdict
against the bound BENCHMARK.json fixes for the metric:

- ``ok``          B is not worse than A by more than the bound;
- ``worse``       it is;
- ``unresolved``  the spread between a side's own repetitions is wider
  than the bound (or run.py flagged the run: generator late, machine
  loaded), so the row shows nothing either way;
- ``incorrect``   a side's outputs were wrong; it has no timings.

The per-layer rows follow with their ratios and no verdict: they have
no bound, they say where a difference sits.  Exits 1 when any row is
``worse`` or ``incorrect``.
"""

from __future__ import annotations

import json
import os
import sys

BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"
)


def _spread(row: dict) -> float:
    return (row["high"] - row["low"]) / row["value"] if row["value"] else 0.0


def verdict(spec: dict, base: dict, change: dict) -> tuple[str, float]:
    """(verdict, share by which ``change`` is worse than ``base``) for
    one metric whose BENCHMARK.json entry is ``spec``."""
    a, b = base["value"], change["value"]
    worse_by = (b - a) / a if spec["better"] == "lower" else (a - b) / a
    if max(_spread(base), _spread(change)) > spec["bound"]:
        return "unresolved", worse_by
    return ("worse" if worse_by > spec["bound"] else "ok"), worse_by


def compare(benchmark: dict, base: dict, change: dict) -> list[dict]:
    """One row per workload x metric present in both reports."""
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        sides = [r["workloads"].get(name) for r in (base, change)]
        if None in sides:
            continue
        for kind, specs in (("end_to_end", benchmark["end_to_end"]),
                            ("per_layer", benchmark["per_layer"])):
            runs = [side.get(kind) for side in sides]
            if None in runs:
                continue
            if not all(run["correct"] for run in runs):
                rows.append({"workload": name, "metric": f"({kind})",
                             "verdict": "incorrect"})
                continue
            flagged = any(run["unresolved"] for run in runs)
            for spec in specs:
                a, b = (run["metrics"][spec["name"]] for run in runs)
                row = {
                    "workload": name, "metric": spec["name"],
                    "unit": spec["unit"], "base": a["value"],
                    "change": b["value"],
                    "ratio": b["value"] / a["value"] if a["value"] else None,
                }
                if kind == "end_to_end":
                    row["bound"] = spec["bound"]
                    row["verdict"], row["worse_by"] = verdict(spec, a, b)
                    if flagged and row["verdict"] == "ok":
                        row["verdict"] = "unresolved"
                rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in (BENCHMARK, *argv):
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    rows = compare(*loaded)
    for row in rows:
        if "ratio" not in row:
            print(f"{row['workload']:18s} {row['metric']:48s} incorrect")
            continue
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        line = (f"{row['workload']:18s} {row['metric']:48s} "
                f"B/A {ratio:>7s}  (A = {row['base']:.6g} {row['unit']}, "
                f"B = {row['change']:.6g})")
        if "verdict" in row:
            line += (f"  {row['verdict']:10s} worse by "
                     f"{100 * row['worse_by']:+.1f}% of A, bound "
                     f"{100 * row['bound']:.0f}%")
        print(line)
    bad = [r for r in rows if r.get("verdict") in ("worse", "incorrect")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
