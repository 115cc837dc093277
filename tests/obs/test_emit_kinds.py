"""Schema guard: every trace kind the sources emit is in the schema.

``validate-trace`` rejects a trace carrying a kind missing from
:data:`repro.obs.schema.EVENT_SCHEMA`, so a new ``tracer.emit("x.y",
...)`` that is not registered breaks every trace that records it.  This
walks ``src/`` and checks every string constant the kind argument of an
``.emit(`` (or a component's own ``._emit(``) call can take: a bare
literal, or either branch of a conditional expression.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.obs.schema import EVENT_SCHEMA


def _constants(expr: ast.expr):
    """The string constants ``expr`` can evaluate to, through
    conditional expressions."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        yield expr.value
    elif isinstance(expr, ast.IfExp):
        yield from _constants(expr.body)
        yield from _constants(expr.orelse)


def _emitted_kinds(root: pathlib.Path):
    """``(path, line, kind)`` of each kind an ``.emit(<kind>, ...)``
    call can pass."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("emit", "_emit")
                and node.args
            ):
                for kind in _constants(node.args[0]):
                    yield path.relative_to(root), node.lineno, kind


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


def test_both_branches_of_a_conditional_kind_are_seen():
    call = ast.parse('t.emit("a.x" if parked else "a.y", 0.0)').body[0].value
    assert list(_constants(call.args[0])) == ["a.x", "a.y"]
