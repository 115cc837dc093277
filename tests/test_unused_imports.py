"""Every name a ``src/`` module imports is used there.

A stdlib-``ast`` scan (no linter is a dependency of this repository):
an imported name counts as used when the module reads it anywhere --
code, annotations (quoted ones too) -- or lists it in ``__all__``.
``ALLOWED`` names the exceptions, ``"<module path>:<name>"`` -> the
reason it stays; it starts empty.
"""

from __future__ import annotations

import ast
import pathlib

import repro

ALLOWED: dict[str, str] = {}


def _bindings(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> the line it is on."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(annotation: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
        for annotation in annotations:
            if annotation is not None:
                used |= _annotation_names(annotation)
    return used


def unused_imports(root: pathlib.Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used(tree)
        relative = path.relative_to(root.parent).as_posix()
        for name, line in sorted(_bindings(tree).items()):
            if name not in used and f"{relative}:{name}" not in ALLOWED:
                found.append(f"{relative}:{line} imports {name}, never used")
    return found


def test_no_src_module_imports_a_name_it_does_not_use():
    root = pathlib.Path(repro.__file__).parent
    assert unused_imports(root) == []


def test_the_scan_sees_an_unused_import_and_honours_all(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, TYPE_CHECKING\n"
        "from json import dumps\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['dumps']\n"
        "def f(p: 'Path') -> Optional[int]:\n"
        "    return None\n"
    )
    assert unused_imports(package) == ["pkg/a.py:2 imports os, never used"]
