"""Multi-process deployment plane for the live runtime.

``python -m repro deploy`` runs the live cluster as **real OS
processes**: a supervisor (:mod:`repro.deploy.supervisor`) spawns one
worker process per node (``python -m repro worker``, see
:mod:`repro.deploy.worker`), hands the run driver
(:mod:`repro.runtime.driver`) one small length-prefixed control RPC
connection per worker (:mod:`repro.deploy.control`) to wire / drive /
drain / judge them over, and collects every node's trace, metrics and
profile files into one run directory.  The chaos layer
(:mod:`repro.deploy.chaos`) ports the PR 1 fault scenarios to this
backend: ``kill -9`` with supervised restart, socket-level partitions,
and clock-skew injection -- see docs/DEPLOY.md.

This ``__init__`` stays import-light on purpose: the wire codec
(:mod:`repro.runtime.codec`) registers :mod:`repro.deploy.wire`'s
message classes at import time, which must not drag the whole
deployment plane (or, transitively, ``repro.sim``) in.  Everything
heavy loads lazily via ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "DeployConfig",
    "DeployReport",
    "DeploySupervisor",
    "JoinAck",
    "JoinLearner",
    "SCENARIOS",
    "TopologySpec",
    "build_topology",
    "run_deploy",
    "worker_main",
]

_LAZY = {
    "DeployConfig": "supervisor",
    "DeployReport": "supervisor",
    "DeploySupervisor": "supervisor",
    "JoinAck": "wire",
    "JoinLearner": "wire",
    "SCENARIOS": "chaos",
    "TopologySpec": "topology",
    "build_topology": "topology",
    "run_deploy": "chaos",
    "worker_main": "worker",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
