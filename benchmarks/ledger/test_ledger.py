"""The ledger's own tests: ``pytest benchmarks/ledger -q``.

Not part of the tier-1 ``testpaths``.  Every workload runs at 2% scale
through the entry point the benchmark itself uses.
"""

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
DRIVERS = ("run.py", "workloads.py", "tracing.py", "calibration.py")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def repetitions():
    return {
        (name, traced): workloads.run_workload(
            name, seed=3, scale=SCALE, traced=traced
        )
        for name in workloads.WORKLOADS for traced in (False, True)
    }


def test_every_workload_is_correct_at_small_scale(repetitions):
    for key, result in repetitions.items():
        assert result["correct"], (key, result["errors"])
        assert result["failed"] == 0 and result["attempted"] > 0, key


def test_report_carries_exactly_the_names_in_benchmark_json(
    benchmark_json, repetitions
):
    def declared(kind):
        return {m["name"]: m["unit"] for m in benchmark_json[kind]}

    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert declared("end_to_end") == workloads.END_TO_END
    assert declared("per_layer") == workloads.PER_LAYER
    for name in workloads.WORKLOADS:
        folded = workloads.fold([repetitions[name, False]])
        assert set(folded) == set(workloads.END_TO_END)
        assert all(row["value"] > 0 for row in folded.values()), (name, folded)
        assert set(repetitions[name, True]["per_layer"]) == set(
            workloads.PER_LAYER
        )


def test_cost_table_adds_up_to_the_traced_cpu(repetitions):
    for name in workloads.WORKLOADS:
        table = repetitions[name, True]["per_layer"]
        layers = sum(table[row] for row in workloads.LEDGER_ROWS)
        residual = table[workloads.LIVE_RESIDUAL] + table[workloads.SIM_RESIDUAL]
        total = table[workloads.TRACED_CPU]
        assert layers > 0, name
        assert layers + residual == pytest.approx(total, rel=0.01), name


def _private_reaches(tree):
    """Underscore attributes read off anything but ``self`` inside one
    of the file's own classes."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            own.update(
                id(sub) for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"
            )
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__") and id(node) not in own
    ]


def test_drivers_stay_on_the_public_surface():
    for filename in DRIVERS:
        with open(os.path.join(HERE, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = [
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
        ]
        assert not [m for m in imported if m.startswith("repro.bench")], filename
        assert not _private_reaches(tree), filename


def test_private_reach_check_sees_a_reach():
    tree = ast.parse("def hook(self, cluster):\n    return cluster._loop\n")
    assert _private_reaches(tree) == ["line 2: ._loop"]


def test_gate_trips_on_a_divergent_sequence():
    agreed = [("s1", 0, 11), ("s1", 1, 12), ("s2", 0, 13)]
    swapped = [agreed[1], agreed[0], agreed[2]]
    assert workloads.check_live(
        True, {"r1": agreed, "r2": list(agreed)}, [11, 12, 13], 3, 3
    ) == []
    errors = workloads.check_live(
        True, {"r1": agreed, "r2": swapped}, [11, 12, 13], 3, 3
    )
    assert any("diverge" in e and "index 0" in e for e in errors)
    # Lost, duplicated, undrained, uncommitted: each trips on its own.
    assert workloads.check_live(
        True, {"r1": agreed[:2], "r2": agreed[:2]}, [11, 12, 13], 0, 0
    )
    assert workloads.check_live(
        True, {"r1": agreed + agreed[:1], "r2": agreed + agreed[:1]},
        [11, 12, 13], 0, 0,
    )
    assert workloads.check_live(
        False, {"r1": agreed, "r2": agreed}, [11, 12, 13], 0, 0
    )
    assert workloads.check_live(
        True, {"r1": agreed, "r2": agreed}, [11, 12, 13], 3, 2
    )


def test_compare_applies_the_bound_per_row():
    spec = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}

    def row(value, low=None, high=None):
        return {"value": value, "low": low or value, "high": high or value}

    assert compare.verdict(spec, row(100.0), row(109.0))[0] == "ok"
    assert compare.verdict(spec, row(100.0), row(111.0))[0] == "worse"
    assert compare.verdict(spec, row(100.0), row(50.0))[0] == "ok"
    assert compare.verdict(
        spec, row(100.0, 90.0, 105.0), row(120.0))[0] == "unresolved"
    higher = dict(spec, better="higher")
    assert compare.verdict(higher, row(100.0), row(89.0))[0] == "worse"
    assert compare.verdict(higher, row(100.0), row(120.0))[0] == "ok"
