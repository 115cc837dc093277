"""Schema guard: every trace kind the sources emit is in the schema.

``validate-trace`` rejects a trace carrying a kind missing from
:data:`repro.obs.schema.EVENT_SCHEMA`, so a new ``tracer.emit("x.y",
...)`` that is not registered breaks every trace that records it.  This
walks ``src/`` and checks each string literal passed as the kind to an
``.emit(`` call.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.obs.schema import EVENT_SCHEMA


def _emitted_kinds(root: pathlib.Path):
    """``(path, line, kind)`` of each ``.emit("<kind>", ...)`` call."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                yield path.relative_to(root), node.lineno, node.args[0].value


def test_every_emitted_kind_is_in_the_schema():
    root = pathlib.Path(repro.__file__).parent
    emitted = list(_emitted_kinds(root))
    assert len(emitted) > 40          # the walk found the tracer calls
    unknown = [
        f"{path}:{line}: {kind!r}"
        for path, line, kind in emitted if kind not in EVENT_SCHEMA
    ]
    assert not unknown, "kinds missing from EVENT_SCHEMA:\n" + "\n".join(
        unknown
    )
