"""No public ``src/`` name is there for its tests alone.

A public name -- a module-level function or class, or a method of a
public class, not starting with ``_`` -- that nothing outside ``tests/``
mentions is code the program does not run: it is deleted, or stays for
a stated reason in ``ALLOWED`` (``"<module path>:<qualified name>"`` ->
the reason).  A mention is the name as a word anywhere in ``src/``
(bar its own ``def``/``class`` line), ``examples/`` or ``benchmarks/``:
text, not types, so a docstring or ``__all__`` entry counts.  Handlers
the code calls by a built name (``DISPATCHED``) are mentioned by that.
"""

from __future__ import annotations

import ast
import pathlib
import re

import repro

ALLOWED: dict[str, str] = {
    "cloud/openstack.py:CloudCompute.delete_server":
        "a fixture of tests/integration/test_autoscaling.py: an operator "
        "deleting a VM the autoscaler lost",
    "cloud/vm.py:VirtualMachine.is_active":
        "a fixture of tests/integration/test_autoscaling.py: which VMs a "
        "deletion left running",
    "obs/spans.py:LifecycleIndex.from_recorder":
        "indexes a flight recorder's ring in memory, as a trace file is "
        "indexed once written; tests/runtime/test_live_telemetry.py "
        "compares the two",
    "multicast/stream.py:StreamDeployment.enable_ring_watchdog":
        "ring reformation around a crashed acceptor, kept until ROADMAP "
        "item 25 wires it into the failover path",
}

# Name prefixes the program calls through a name it builds at run time.
DISPATCHED: dict[str, str] = {
    "on_": "net/actor.py Actor.dispatch calls on_<message> for a message",
    "op_": "runtime/node.py NodeOps.call calls op_<op> for a control op",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


Site = tuple[str, pathlib.Path, int]     # qualified name, file, line


def public_names(root: pathlib.Path) -> dict[str, list[Site]]:
    """name -> where each public definition of that name is."""
    found: dict[str, list[Site]] = {}

    def add(node: ast.AST, qualified: str, path: pathlib.Path) -> None:
        relative = path.relative_to(root).as_posix()
        found.setdefault(node.name, []).append(
            (f"{relative}:{qualified}", path, node.lineno))

    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, definitions) or node.name.startswith("_"):
                continue
            add(node, node.name, path)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, definitions[:2])
                            and not item.name.startswith("_")):
                        add(item, f"{node.name}.{item.name}", path)
    return found


def _words(paths, skip=frozenset()) -> set[str]:
    words: set[str] = set()
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if (path, number) not in skip:
                words.update(_WORD.findall(line))
    return words


def names_only_tests_use(root: pathlib.Path, users: list[pathlib.Path],
                         tests: list[pathlib.Path]) -> list[str]:
    """Public names under ``root`` that only ``tests`` mention."""
    defined = public_names(root)
    own_lines = {(path, line) for sites in defined.values()
                 for _q, path, line in sites}
    used = _words(root.rglob("*.py"), own_lines) | _words(users)
    mentioned = _words(tests)
    return [
        qualified
        for name, sites in sorted(defined.items())
        if name not in used and name in mentioned
        and not name.startswith(tuple(DISPATCHED))
        for qualified, _path, _line in sites
        if qualified not in ALLOWED
    ]


def test_no_public_src_name_is_used_by_tests_alone():
    package = pathlib.Path(repro.__file__).parent
    repo = package.parent.parent
    users = [path for folder in ("examples", "benchmarks")
             for path in sorted((repo / folder).rglob("*.py"))]
    tests = sorted((repo / "tests").rglob("*.py"))
    assert names_only_tests_use(package, users, tests) == []


def test_every_allowed_name_is_still_defined():
    package = pathlib.Path(repro.__file__).parent
    defined = {qualified for sites in public_names(package).values()
               for qualified, _path, _line in sites}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined


def test_the_scan_sees_a_name_only_tests_use(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def entry():\n"
        "    return helper()\n"
        "def helper():\n"
        "    '''Pairs with documented().'''\n"
        "def documented():\n"
        "    pass\n"
        "def for_tests():\n"
        "    pass\n"
        "class Actor:\n"
        "    def on_ping(self):\n"
        "        pass\n"
        "    def probe(self):\n"
        "        pass\n"
        "class _Private:\n"
        "    def probe_too(self):\n"
        "        pass\n"
    )
    example = tmp_path / "example.py"
    example.write_text("from pkg.a import entry\nentry()\n")
    test = tmp_path / "test_a.py"
    test.write_text(
        "from pkg.a import entry, helper, documented, for_tests, Actor\n"
        "from pkg.a import _Private\n"
        "entry(); helper(); documented(); for_tests(); Actor().on_ping()\n"
        "Actor().probe(); _Private().probe_too()\n"
    )
    assert sorted(names_only_tests_use(package, [example], [test])) == [
        "a.py:Actor", "a.py:Actor.probe", "a.py:for_tests",
    ]
