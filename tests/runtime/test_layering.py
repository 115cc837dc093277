"""Layering: protocol code depends on the kernel interface, not the sim.

The protocol layer (net, paxos, multicast, kvstore, coordination,
storage), the runtime package and the deployment plane must not import
``repro.sim`` at module level -- they code against :mod:`repro.runtime.kernel` so
the same sources run on the simulator and on the live asyncio kernel.
Function-scoped deferred imports (e.g. the utilisation probe in
``runtime.resources``) are allowed: they create no import-time
dependency and only run on the sim path.
"""

from __future__ import annotations

import ast
import pathlib
import re

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


def test_protocol_layer_has_no_module_level_sim_import():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in PROTOCOL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            module_parts = _module_parts(root, path)
            for node in tree.body:      # module level only, by design
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
    # Protocol code runs as handlers, deferred calls and timers
    # (``runtime.kernel.every``); generator processes are for sim-side
    # scripts.  So the protocol packages yield nothing, spawn, wait on
    # and interrupt no process.
    waits = {"process", "timeout", "any_of"}
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for package in ("paxos", "multicast", "net"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                where = f"{path.relative_to(root.parent)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    offenders.append(f"{where} yields")
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in waits):
                    offenders.append(f"{where} calls .{node.func.attr}(")
                elif (getattr(node, "id", None) == "Interrupt"
                        or getattr(node, "attr", None) == "Interrupt"
                        or (isinstance(node, ast.alias)
                            and node.name == "Interrupt")):
                    offenders.append(f"{where} names Interrupt")
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


def test_runtime_package_imports_without_sim():
    # Importing the runtime package must not drag the simulator in:
    # a live deployment should never pay for (or depend on) sim code
    # it does not run.  Use a subprocess-free check: the lazy-export
    # table exists and the eager surface is only the kernel interface.
    import repro.runtime as runtime

    assert set(runtime._LAZY) >= {
        "AsyncioKernel",
        "TcpTransport",
        "encode",
        "decode",
        "run_live",
    }


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
                    and node.name.startswith("_check_")
                    and node.name != "_check_loop"):     # the check *timer*
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
        "WorkerHandle", "ControlClient",
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
