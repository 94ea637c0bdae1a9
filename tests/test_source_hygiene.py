"""Source checks that need no linter: every name a module imports is used,
every top-level definition is read or exported, and no floating-point error
state is switched off outside ``cholesky_gate``.

A deletion can leave an import behind that nothing reads any more.  Each
module of the package except ``__init__.py`` (whose imports are its exports)
is parsed with :mod:`ast`; an imported name that the module never reads
fails the test, unless its import line carries ``# noqa``.  A deletion can
also leave a helper behind: a top-level function, class or assigned name
that no module of the package reads, as a name in its own module, as
``module.name`` or through ``from .module import name``, fails the test
unless ``__init__.py`` exports it.

``nuisance.unit_scaled`` scales every input once, so no computation behind
it needs to silence an overflow; ``np.errstate`` is allowed only in
``nuisance.cholesky_gate``, whose tiny pivots come from ill-conditioned
matrices, not from scale.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "fusiongain"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    # ``import a.b`` binds ``a``
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from x import (a,\n    b)\nimport sys  # noqa: F401\n"
              "def f(v: np.ndarray):\n    return math.pi + a\n")
    assert unused_imports(source) == [(3, "os"), (6, "b")]


def unread_definitions(modules: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each top-level function, class or assigned name
    of a module that no module reads and ``__init__`` does not export;
    ``modules`` maps each module name of the package to its source."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names)
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names if (module, name) not in read]
    return unread


def test_every_definition_is_read_or_exported():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_definitions(modules) == []


def test_checker_finds_an_unread_definition():
    modules = {
        "__init__": "from .a import exported\n",
        "a": ("from . import b\nLIMIT = 3\nUNUSED = 4\n_private: int = 5\n"
              "def exported():\n    return b.helper() + LIMIT\n"
              "def orphan():\n    return _private\nclass Left:\n    pass\n"),
        "b": "from .a import LIMIT\ndef helper():\n    return LIMIT\ndef stale():\n    pass\n",
    }
    assert unread_definitions(modules) == [("a", 3, "UNUSED"), ("a", 7, "orphan"),
                                           ("a", 9, "Left"), ("b", 4, "stale")]


def errstate_uses(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each ``errstate`` the module reads."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "errstate") or (
                isinstance(node, ast.Name) and node.id == "errstate"):
            uses.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return uses


def test_errstate_only_in_cholesky_gate():
    uses = {path.name: errstate_uses(path.read_text(encoding="utf-8")) for path in SOURCES}
    outside = {name: [u for u in found if u[1] != "cholesky_gate"]
               for name, found in uses.items()}
    assert {name: found for name, found in outside.items() if found} == {}


def test_checker_finds_errstate():
    source = ("import numpy as np\nfrom numpy import errstate\nquiet = np.errstate\n"
              "def cholesky_gate():\n    with np.errstate(over='ignore'):\n        pass\n"
              "def other():\n    with errstate():\n        pass\n")
    assert errstate_uses(source) == [(3, None), (5, "cholesky_gate"), (8, "other")]
