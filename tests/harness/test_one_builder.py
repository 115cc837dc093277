"""One builder: the paper's evaluation stands up through the cluster.

Every experiment and baseline driver, and every benchmark under
``benchmarks/test_bench_*.py``, builds its simulated cluster with
:class:`repro.harness.cluster.MulticastCluster` and reads ``env``,
``network``, ``directory`` and ``rng`` off it.  One that constructs an
``Environment``, a ``Network`` or an ``RngRegistry`` of its own is a
hand-rolled build next to the builder; this guard keeps one from
coming back.  (The ledger under ``benchmarks/ledger`` drives the
drivers and is not scanned.)
"""

from __future__ import annotations

import ast
import pathlib

import repro

DRIVER_PACKAGES = ("harness/experiments", "baselines")
BUILT_BY_THE_CLUSTER = {"Environment", "Network", "RngRegistry"}
BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _scanned() -> list[pathlib.Path]:
    root = pathlib.Path(repro.__file__).parent
    paths = [
        path for package in DRIVER_PACKAGES
        for path in sorted((root / package).rglob("*.py"))
    ]
    return paths + sorted(BENCHMARKS.glob("test_bench_*.py"))


def test_drivers_build_no_cluster_of_their_own():
    scanned = _scanned()
    offenders = []
    for path in scanned:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in BUILT_BY_THE_CLUSTER:
                offenders.append(
                    f"{path.parent.name}/{path.name}:{node.lineno} "
                    f"constructs {name}"
                )
    assert len(scanned) >= 22, "drivers or benches moved: update the scan"
    assert not offenders, "\n".join(offenders)
