"""Source checks that need no linter: every name a module imports is used.

A deletion can leave an import behind that nothing reads any more.  Each
module of the package except ``__init__.py`` (whose imports are its exports)
is parsed with :mod:`ast`; an imported name that the module never reads
fails the test, unless its import line carries ``# noqa``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "fusiongain").glob("*.py")
                 if p.name != "__init__.py")


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
