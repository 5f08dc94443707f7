"""Every module-level import in the package's modules is used there, and
every public name they define is read outside its own definition.  No test
module imports another: what several share lives in reference.py.

Parsed with ast, so no linter is needed.  __init__.py re-exports names
without using them and is exempt, as is an import on a line marked
``# noqa: F401``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oddbouquet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = ROOT / "tests"


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


def imported_test_modules(source: str) -> list[str]:
    """The modules named test_* that an import in source may bind, sorted."""
    return sorted(name for name in imported_modules(source)
                  if any(part.startswith("test_") for part in name.split(".")))


def test_no_test_module_imports_another():
    # every module under tests/, reference.py among them: a helper that two
    # modules share lives in reference.py, so moving or renaming a test
    # never breaks another module
    paths = sorted(TESTS.glob("*.py"))
    assert len(paths) > 10
    assert {p.name: imported_test_modules(p.read_text()) for p in paths} == {p.name: [] for p in paths}


def test_test_module_imports_are_found():
    for source in ("from test_toric import SMALL_KS\n", "import test_cli\n", "from tests import test_ringinv\n",
                   "def f():\n    from tests.test_srcomplex import SWEEP_KS\n"):
        assert imported_test_modules(source), source
    assert imported_test_modules("from reference import trimmed\nimport pytest\n") == []


def defined_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each public name a module-level def, class or assignment binds."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def read_names(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """The names tree reads outside the subtree skip: loaded names, attributes
    and from-imported names, and with strings every identifier in a string."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_names(sources: dict[str, str], outside: set[str]) -> list[str]:
    """module.name for each public name defined in sources that no other
    source reads, nor its own module outside its definition, nor outside."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {module: read_names(tree) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(names for other, names in read.items() if other != module))
        out += [f"{module}.{name}" for name, node in defined_names(tree)
                if name not in elsewhere and name not in read_names(tree, skip=node)]
    return out


def test_every_public_name_is_read():
    # a name that only tests read is dead weight in src/: the benchmark's
    # tracer names its spans in strings, and the console script by its
    # entry point in pyproject.toml
    outside = set(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= read_names(ast.parse(path.read_text()), strings=True)
    assert "main_entry" in outside and "edge_subring_hilbert" in outside
    assert unread_names({p.stem: p.read_text() for p in MODULES}, outside) == []


def test_unread_names_are_found():
    sources = {
        "a": "X = 1\nY: int = 2\n_P = 3\ndef f():\n    return f()\nclass C:\n    def m(self) -> 'C':\n        return C\n",
        "b": "from a import Y\ndef g():\n    return g\nh = g\n",
    }
    assert unread_names(sources, outside={"h"}) == ["a.X", "a.f", "a.C"]
    assert unread_names(sources, outside={"X", "f", "C", "h"}) == []
