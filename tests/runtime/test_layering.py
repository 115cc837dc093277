"""Layering: protocol code depends on the kernel interface, not the sim.

The protocol layer (net, paxos, multicast, kvstore, coordination,
storage), the runtime package and the deployment plane must not import
``repro.sim`` anywhere, at module level or inside a function -- they code
against :mod:`repro.runtime.kernel` so the same sources run on the
simulator and on the live asyncio kernel.  What they measure with (the
counters, series and utilisation probe) lives in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import repro

PROTOCOL_PACKAGES = (
    "net",
    "paxos",
    "multicast",
    "kvstore",
    "coordination",
    "storage",
    "runtime",
    "deploy",
)


def _module_parts(root: pathlib.Path, path: pathlib.Path) -> list[str]:
    parts = ["repro", *path.relative_to(root).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return parts


def _resolve(module_parts: list[str], node: ast.ImportFrom) -> str:
    """Absolute dotted name an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module or ""
    package = module_parts[:-1] if module_parts[-1] != "repro" else module_parts
    base = package[: len(package) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def test_protocol_layer_imports_no_sim():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in PROTOCOL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            module_parts = _module_parts(root, path)
            for node in ast.walk(tree):
                targets = []
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    targets = [_resolve(module_parts, node)]
                for target in targets:
                    if target == "repro.sim" or target.startswith("repro.sim."):
                        offenders.append(
                            f"{path.relative_to(root.parent)}:{node.lineno} "
                            f"imports {target}"
                        )
    assert not offenders, "\n".join(offenders)


def test_protocol_actors_spawn_no_process():
    # One execution model on both backends: everything in the package
    # -- protocol actors and the scripts that drive a simulated run --
    # runs as handlers, deferred calls and timers
    # (``runtime.kernel.every``).  So nothing yields, spawns, waits on
    # or interrupts a process, and nothing builds or imports a waitable
    # event.  One generator is no process and is allowed by name: a
    # context manager.
    allowed_generators = {
        ("obs/trace.py", "installed"),
    }
    waits = {"process", "timeout", "any_of", "all_of", "event"}
    engine = {"AnyOf", "AllOf", "Event", "Timeout", "Process"}
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        generators = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (module, function.name) in allowed_generators
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            where = f"{path.relative_to(root.parent)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                if id(node) not in generators:
                    offenders.append(f"{where} yields")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in waits):
                offenders.append(f"{where} calls .{node.func.attr}(")
            elif "Interrupt" in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None) if isinstance(node, ast.alias) else None,
            ):
                offenders.append(f"{where} names Interrupt")
            elif (isinstance(node, ast.ImportFrom)
                    and "sim" in (node.module or "").split(".")
                    and any(alias.name in engine for alias in node.names)):
                offenders.append(f"{where} imports the engine from repro.sim")
    assert not offenders, "\n".join(offenders)


def test_live_nodes_are_assembled_in_one_place():
    # One way to stand up a live node: the in-process cluster and the
    # worker process both go through repro.runtime.node, so neither may
    # construct a kernel, a transport or a protocol actor of its own.
    assembled = {
        "AsyncioKernel", "TcpTransport", "StreamDeployment",
        "MulticastReplica", "MulticastClient",
    }
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in ("runtime", "deploy"):
        for path in sorted((root / package).rglob("*.py")):
            if path == root / "runtime" / "node.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in assembled:
                    offenders.append(
                        f"{path.relative_to(root.parent)}:{node.lineno} "
                        f"constructs {name}"
                    )
    assert not offenders, "\n".join(offenders)


#: Planes a live node never runs: a worker or an in-process cluster
#: that loads one of them pays for (and depends on) code it does not use.
_NOT_LIVE = (
    "repro.sim", "repro.harness", "repro.faults.orchestrator",
    "repro.faults.runner", "repro.faults.scenarios", "repro.faults.schedule",
    "repro.kvstore.repartition", "repro.workload",
    "repro.elasticity", "repro.cloud", "repro.baselines",
    "repro.obs.critpath", "repro.obs.spans", "repro.obs.merge",
)
#: The in-process cluster trims its acceptor logs; a deploy worker does
#: not (it replays from instance 0 after a kill9: multicast/trim.py).
_NOT_DEPLOYED = _NOT_LIVE + ("repro.multicast.trim",)


def _loaded_after(*modules: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    ``modules``."""
    script = (
        "import sys\n"
        f"for name in {modules!r}: __import__(name)\n"
        "print('\\n'.join(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env=env, timeout=60,
    ).stdout
    return set(out.split())


def test_the_spec_imports_nothing_else():
    assert _loaded_after("repro.spec") == {"repro", "repro.spec"}


def test_the_cli_loads_a_plane_only_for_its_command():
    # `python -m repro worker` pays for the worker's modules, not for
    # the figures' report helpers.
    assert _loaded_after("repro.cli") == {"repro", "repro.cli"}


def test_a_live_node_loads_the_protocol_not_the_planes():
    for modules, not_loaded in (
        (("repro.deploy.worker", "repro.runtime.codec"), _NOT_DEPLOYED),
        (("repro.runtime.supervisor", "repro.runtime.codec"), _NOT_LIVE),
    ):
        loaded = _loaded_after(*modules)
        planes = sorted(
            m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in not_loaded)
        )
        assert not planes, (modules, planes)
        assert len(loaded) <= 55, (modules, len(loaded), sorted(loaded))


def test_the_sim_drivers_load_no_key_value_store():
    # The key/value store's cluster lives beside the store
    # (kvstore/repartition.py): the figures and the scenario runner
    # build a MulticastCluster and pay for no store, registry or
    # keyspace workload.
    for module in ("repro.harness.experiments.vertical",
                   "repro.faults.runner"):
        loaded = _loaded_after(module)
        stores = sorted(
            m for m in loaded
            if m.startswith(("repro.kvstore", "repro.coordination"))
        )
        assert not stores, (module, stores)


def test_package_inits_are_docstrings():
    # One way to import a name: from the module that defines it.  A
    # package ``__init__`` that re-exported would load every plane it
    # names for whoever imports any one module under it.
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("__init__.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(root.parent)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders.append(f"{where} imports")
            elif isinstance(node, ast.Name) and node.id == "__all__":
                offenders.append(f"{where} sets __all__")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "__getattr__"):
                offenders.append(f"{where} defines __getattr__")
    assert not offenders, "\n".join(offenders)


def test_both_backends_implement_the_whole_transport_interface():
    # Structural protocols are only checked where someone calls them:
    # pin that the simulator's network and the TCP transport each define
    # every member ``runtime.kernel.Transport`` declares.
    from repro.runtime.kernel import Transport
    from repro.runtime.transport import TcpTransport
    from repro.sim.network import Network

    declared = {
        name for name, member in vars(Transport).items()
        if callable(member) and not name.startswith("_")
    } | set(Transport.__annotations__)
    assert {"send", "broadcast", "defer"} <= declared
    for backend in (Network, TcpTransport):
        missing = {name for name in declared if not hasattr(backend, name)}
        assert not missing, (backend.__name__, missing)


def test_sim_defer_runs_the_callable_before_it_returns():
    # The simulator delivers each send on its own, so a deferred
    # callable has nothing to wait for: a client that batches through
    # ``defer`` sends there exactly what it always sent, when it did.
    from repro.sim.core import Environment
    from repro.sim.network import Network

    ran = []
    Network(Environment()).defer(lambda: ran.append(True))
    assert ran == [True]


def test_the_tcp_transport_has_one_end_of_turn_callback():
    # One write per connection per loop turn, from one callback per
    # transport: nothing else in the module may schedule a flush (or
    # anything) with ``call_soon``.
    root = pathlib.Path(repro.__file__).parent
    tree = ast.parse((root / "runtime" / "transport.py").read_text())
    scheduled = {
        ast.unparse(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "call_soon"
    }
    assert scheduled == {"self._end_of_turn"}


# -- one statement of the safety properties (repro.spec) ----------------

def _sources():
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def test_spec_is_a_leaf_module():
    # The executable specification depends on nothing it specifies.
    tree = dict(_sources())["spec.py"]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module == "typing", ast.dump(node)
        elif isinstance(node, ast.Import):
            raise AssertionError(f"spec.py imports {ast.dump(node)}")


def test_property_names_are_spelled_in_one_module():
    # A second module that spells a property name is a second place
    # that decides what the property means.  (Docstrings may talk about
    # the properties; code and report strings may not name them.)
    from repro.spec import PROPERTIES

    offenders = []
    for name, tree in _sources():
        if name == "spec.py":
            continue
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                words = set(re.findall(r"[a-z]+(?:-[a-z]+)*", node.value))
                for hit in words.intersection(PROPERTIES):
                    offenders.append(f"{name}:{node.lineno} spells {hit!r}")
    assert not offenders, "\n".join(offenders)


def _docstrings(tree) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


# An actor name, written out or formatted: ``S1/coordinator``,
# ``f"{stream}/a{i}"``, ``"%s/r%d"``, ``"g1/r2"``.
_ACTOR_NAME = re.compile(r"/(coordinator|acceptor)|/[ar](\{\}|%|\d+$)")


def test_actor_names_are_formatted_in_one_module():
    # One rule names every actor on both backends
    # (repro.paxos.config.coordinator_name / acceptor_name /
    # replica_name); any other module asks the rule or a topology.
    offenders = []
    for name, tree in _sources():
        if name == "paxos/config.py":
            continue
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(
                    part.value if isinstance(part, ast.Constant) else "{}"
                    for part in node.values
                )
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings):
                text = node.value
            else:
                continue
            if _ACTOR_NAME.search(text):
                offenders.append(f"{name}:{node.lineno} names {text!r}")
    assert not offenders, "\n".join(offenders)


def test_front_ends_state_no_property_of_their_own():
    # A front-end maps its input onto the spec's events; a
    # `_check_<property>` pass or a cycle search of its own would be a
    # second statement of a property.
    offenders = []
    for name, tree in _sources():
        if not name.startswith(("faults/", "obs/")):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_check_")):
                offenders.append(f"{name}:{node.lineno} defines {node.name}")
            if (isinstance(node, ast.Name)
                    and node.id.upper() in ("WHITE", "GREY", "GRAY", "BLACK",
                                            "COLOUR", "COLOR")):
                offenders.append(f"{name}:{node.lineno} colours a search")
    assert not offenders, "\n".join(offenders)


# -- one run driver (repro.runtime.driver) ------------------------------

def _calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        == name
    ]


def test_clock_sync_lives_in_one_module():
    callers = [
        name for name, tree in _sources() if _calls(tree, "estimate_offset")
    ]
    assert callers == ["runtime/driver.py"]


def test_supervisors_drive_no_run_of_their_own():
    # Wiring, the subscribe wait, drain and the agreement comparison are
    # the driver's: a supervisor that defines one has forked the verdict.
    forbidden = {
        "drain", "wait_subscribed", "sync_clocks", "agree", "_agreement",
        "gather_sequences", "broadcast_addresses", "collect_violations",
    }
    offenders = []
    for name, tree in _sources():
        if name != "runtime/supervisor.py" and not name.startswith("deploy/"):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in forbidden):
                offenders.append(f"{name}:{node.lineno} defines {node.name}")
            # Comparing two delivery sequences is an agreement check.
            if isinstance(node, ast.Compare) and any(
                "sequence" in ast.unparse(side)
                for side in (node.left, *node.comparators)
            ):
                offenders.append(
                    f"{name}:{node.lineno} compares {ast.unparse(node)}"
                )
    assert not offenders, "\n".join(offenders)


def test_the_driver_does_not_ask_how_a_node_is_reached():
    tree = dict(_sources())["runtime/driver.py"]
    assert not _calls(tree, "isinstance")
    # It may know the spec and the handles' answers, never the classes
    # behind a handle.
    names = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not names & {
        "NodeOps", "LiveNode", "LiveCluster", "DeployWorker",
        "WorkerHandle", "http_json",
    }


def test_the_worker_serves_the_op_table_the_cluster_calls():
    from repro.deploy.worker import DeployWorker
    from repro.runtime.node import NodeOps

    assert issubclass(DeployWorker, NodeOps)
    documented = {
        "hello", "register", "clock", "clock_mark", "start", "workload",
        "activate", "subscribe", "unsubscribe", "check", "status",
        "sequences", "partition", "skew", "flight_dump", "metrics",
        "flush", "stop",
    }
    table = {name[3:] for name in dir(NodeOps) if name.startswith("op_")}
    assert table == documented
    # The process extends three ops and adds none of its own.
    own = {name[3:] for name in vars(DeployWorker) if name.startswith("op_")}
    assert own == {"start", "status", "stop"}
