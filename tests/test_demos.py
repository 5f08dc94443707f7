"""Smoke test: each narrative demo runs to completion as a script, and
README's Library example runs as printed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["worked_example.py", "family_survey.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _readme_library_code():
    """The first python code block under README's "## Library" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    return library.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs_as_printed():
    # exec imports every name the block imports from the package top level;
    # then each line `expr  # value` whose comment is a Python literal must
    # evaluate to that value
    code = _readme_library_code()
    namespace = {}
    exec(code, namespace)
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr.strip(), namespace) == want, line
        checked += 1
    assert checked >= 3
