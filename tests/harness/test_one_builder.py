"""One builder: the paper's evaluation stands up through the cluster.

Every experiment and baseline driver builds its simulated cluster with
:class:`repro.harness.cluster.MulticastCluster` (or ``KvCluster``, its
key/value extension) and reads ``env``, ``network``, ``directory`` and
``rng`` off it.  A driver that constructs an ``Environment``, a
``Network`` or an ``RngRegistry`` of its own is a hand-rolled build
next to the builder; this guard keeps one from coming back.
"""

from __future__ import annotations

import ast
import pathlib

import repro

DRIVER_PACKAGES = ("harness/experiments", "baselines")
BUILT_BY_THE_CLUSTER = {"Environment", "Network", "RngRegistry"}


def test_drivers_build_no_cluster_of_their_own():
    root = pathlib.Path(repro.__file__).parent
    scanned = 0
    offenders = []
    for package in DRIVER_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            scanned += 1
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in BUILT_BY_THE_CLUSTER:
                    offenders.append(
                        f"{path.relative_to(root.parent)}:{node.lineno} "
                        f"constructs {name}"
                    )
    assert scanned >= 9, "driver packages moved: update DRIVER_PACKAGES"
    assert not offenders, "\n".join(offenders)
