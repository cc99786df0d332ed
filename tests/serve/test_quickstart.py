"""The documented quick starts run as written, within a time limit.

Each snippet runs in a fresh interpreter so a hang (a future waiting on
a window nothing schedules) fails the test instead of stalling the
suite."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.serve

ROOT = Path(__file__).resolve().parents[2]


def _fenced_python(path):
    """The first fenced ``python`` block of a Markdown file."""
    text = (ROOT / path).read_text(encoding="utf-8")
    match = re.search(r"```python\n(.*?)```", text, re.S)
    assert match, f"no python block in {path}"
    return match.group(1)


def _docstring_quick_start():
    """The indented literal block after ``Quick start::``."""
    tail = repro.serve.__doc__.split("Quick start::\n", 1)[1]
    lines = []
    for line in tail.splitlines():
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


SNIPPETS = {
    "README.md": lambda: _fenced_python("README.md"),
    "docs/serving.md": lambda: _fenced_python("docs/serving.md"),
    "repro.serve docstring": _docstring_quick_start,
}


@pytest.mark.parametrize("source", sorted(SNIPPETS))
def test_quick_start_runs(source):
    code = SNIPPETS[source]()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the {source} quick start did not finish in 120 s")
    assert proc.returncode == 0, proc.stderr
