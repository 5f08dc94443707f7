"""Every module-level import in the package's modules is used there.

Parsed with ast, so no linter is needed.  __init__.py re-exports names
without using them and is exempt, as is an import on a line marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddbouquet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports in source bind and nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "composition.py", "toric.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from functools import cache, reduce as fold\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: int) -> int:\n"
        "    import sys\n"
        "    return fold(max, [x, len(os.sep)])\n"
    )
    assert unused_imports(source) == ["cache"]
    assert unused_imports("from itertools import chain\nchain.from_iterable\n") == []
