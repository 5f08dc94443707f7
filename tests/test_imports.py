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


def imported_modules(source: str) -> set[str]:
    """Every dotted module name an import in source may bind, leading dots
    dropped: each import's modules, and each from-import's module alone and
    joined with each of its names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            out.add(module)
            out.update(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
    return out


def imports_toric(source: str) -> bool:
    return any("toric" in name.split(".") for name in imported_modules(source))


def test_srcomplex_imports_nothing_from_toric():
    # the complex and its facet oracle work on int masks alone
    assert not imports_toric((PACKAGE / "srcomplex.py").read_text())


def test_toric_imports_are_found():
    for source in ("from .toric import Monomial\n", "from . import toric\n",
                   "import oddbouquet.toric as t\n", "def f():\n    from oddbouquet.toric import generators\n"):
        assert imports_toric(source), source
    assert not imports_toric("from .composition import bits\nfrom .record import Record\n")
