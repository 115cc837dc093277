"""The README's quickstart runs as printed: a stale import or call in
it fails here, not in a reader's first session."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_quickstart_runs():
    quickstart = README.read_text().split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"{README}:quickstart", "exec"), {})
    assert out.getvalue().splitlines() == ["[S1] hello", "[S2] world"]
