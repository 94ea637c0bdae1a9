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

``Dataset`` is an assessment's input: in ``nuisance.py`` only the door,
``unit_scaled``, takes a parameter annotated ``Dataset``, and the nuisance
stack behind it fits plain arrays.

The door makes every array float64 once: in ``nuisance.py`` no call to
``np.asarray``, ``np.array``, ``float`` or ``int`` takes a bare parameter of
its enclosing function, so the helpers behind the door use what their
callers hand them.  Conversions of attributes, locals, literals and
expressions stay.

Every kernel pass draws its (queries x training) slabs from the same three
workspace roles: in ``nuisance.py`` each ``_WORKSPACE.take`` names
``"form"``, ``"transform"`` or ``"revisit"``, so no pass keeps a slab of its
own.

A frozen dataclass is built only through its constructor, so its checks
and copies cannot be skipped: ``object.__new__`` appears nowhere, and
``object.__setattr__`` only inside a ``__post_init__``.

A typed error is a failure the caller sees, not internal control flow: no
``except`` clause outside ``cli.py`` names a subclass of
``FusionGainError`` (the base class may be caught, to annotate or to count
a failure), and every subclass in ``errors.py`` is raised somewhere in the
package.
"""

import ast
import re
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


def matches_by_function(source: str, matches) -> list[tuple[ast.AST, str | None]]:
    """(node, enclosing function) of each node of the module that ``matches``
    accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((node, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def errstate_uses(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each ``errstate`` the module reads."""
    def is_errstate(node):
        return (isinstance(node, ast.Attribute) and node.attr == "errstate") or (
            isinstance(node, ast.Name) and node.id == "errstate")

    return [(node.lineno, function) for node, function in matches_by_function(source, is_errstate)]


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


def dataset_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) of each parameter of a function or method
    of the module whose annotation names ``Dataset``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None and re.search(
                        r"\bDataset\b", ast.unparse(arg.annotation)):
                    found.append((arg.lineno, node.name, arg.arg))
    return found


def test_only_the_door_takes_a_dataset_in_nuisance():
    found = dataset_parameters((PACKAGE / "nuisance.py").read_text(encoding="utf-8"))
    assert [f for f in found if f[1] != "unit_scaled"] == []


def test_checker_finds_a_dataset_parameter():
    source = ("def unit_scaled(data: Dataset) -> Dataset:\n    pass\n"
              "def fit(x: np.ndarray, *, train: 'Dataset | None' = None):\n    pass\n"
              "class R:\n    def predict(self, data: nuisance.Dataset, x):\n        pass\n"
              "def other(rows: DatasetLike, n: int) -> Dataset:\n    pass\n")
    assert dataset_parameters(source) == [(1, "unit_scaled", "data"), (3, "fit", "train"),
                                          (6, "predict", "data")]


CONVERSIONS = {"np.asarray", "np.array", "float", "int"}


def parameter_conversions(source: str) -> list[tuple[int, str, str, str]]:
    """(line, function, conversion, parameter) of each call of ``CONVERSIONS``
    whose first argument is a bare parameter of its innermost enclosing function."""
    found = []

    def visit(node, function, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            function = node.name
            params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if arg is not None}
        if (isinstance(node, ast.Call) and ast.unparse(node.func) in CONVERSIONS and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
            found.append((node.lineno, function, ast.unparse(node.func), node.args[0].id))
        for child in ast.iter_child_nodes(node):
            visit(child, function, params)

    visit(ast.parse(source), None, set())
    return found


def test_no_helper_behind_the_door_converts_its_parameters():
    source = (PACKAGE / "nuisance.py").read_text(encoding="utf-8")
    assert parameter_conversions(source) == []


def test_checker_finds_a_parameter_conversion():
    # ``bands`` belongs to ``__init__``, not to the ``inner`` that converts it
    source = ("import numpy as np\nrows = 3\nsize = int(rows)\n"
              "def f(x, y, *args, z=1):\n    a = np.asarray(x, dtype=float)\n"
              "    b = float(y[0]) + float(a) + float(args)\n"
              "    return int(z) + np.array([0.75, 0.25]) + np.asanyarray(y)\n"
              "class K:\n    def __init__(self, bands):\n"
              "        self.bands = np.array(self.other)\n"
              "        def inner(v):\n            return float(v) + float(bands)\n")
    assert parameter_conversions(source) == [(5, "f", "np.asarray", "x"),
                                             (6, "f", "float", "args"),
                                             (7, "f", "int", "z"),
                                             (12, "inner", "float", "v")]


WORKSPACE_ROLES = {"form", "transform", "revisit"}


def workspace_takes(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_WORKSPACE.take`` of the module, the name as
    its string literal or, if it is not one, as its source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "take" and ast.unparse(node.func.value) == "_WORKSPACE"):
            name = node.args[0]
            found.append((node.lineno, name.value if isinstance(name, ast.Constant)
                          else ast.unparse(name)))
    return sorted(found)


def test_workspace_takes_only_the_three_roles():
    takes = workspace_takes((PACKAGE / "nuisance.py").read_text(encoding="utf-8"))
    assert takes and [t for t in takes if t[1] not in WORKSPACE_ROLES] == []


def test_checker_finds_a_fourth_workspace_role():
    source = ("def f(n, role):\n    a = _WORKSPACE.take('form', (n, n))\n"
              "    b = _WORKSPACE.take('knn_within', (n, n), dtype=bool)\n"
              "    c = _WORKSPACE.take(role, (n,))\n"
              "    return a.take([0]) + np.take(b, [0]) + c\n")
    assert workspace_takes(source) == [(2, "form"), (3, "knn_within"), (4, "role")]


def object_hooks(source: str) -> list[tuple[int, str, str | None]]:
    """(line, attribute, enclosing function) of each ``object.__new__`` and
    ``object.__setattr__`` the module reads."""
    def is_hook(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object" and node.attr in ("__new__", "__setattr__"))

    return [(node.lineno, node.attr, function)
            for node, function in matches_by_function(source, is_hook)]


def test_frozen_objects_built_only_by_their_constructor():
    uses = {path.name: object_hooks(path.read_text(encoding="utf-8")) for path in SOURCES}
    bypasses = {name: [u for u in found if u[1:] != ("__setattr__", "__post_init__")]
                for name, found in uses.items()}
    assert {name: found for name, found in bypasses.items() if found} == {}


def test_checker_finds_object_hooks():
    source = ("class A:\n    def __post_init__(self):\n        object.__setattr__(self, 'v', 1)\n"
              "    def take(self):\n        new = object.__new__(A)\n"
              "        object.__setattr__(new, 'v', 2)\n        return new\n"
              "make = object.__new__\n")
    assert object_hooks(source) == [(3, "__setattr__", "__post_init__"), (5, "__new__", "take"),
                                    (6, "__setattr__", "take"), (8, "__new__", None)]


def error_classes(source: str) -> set[str]:
    """Names of the classes of ``errors.py`` that derive, directly or not,
    from ``FusionGainError``, the base class itself left out.  A module
    defines a base class before its subclasses, so one pass finds them all."""
    found = {"FusionGainError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in found for base in node.bases):
            found.add(node.name)
    return found - {"FusionGainError"}


def _class_name(node: ast.AST) -> str | None:
    """The name an ``except`` or ``raise`` reads: ``Name``, ``errors.Name``
    or ``Name(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def caught_error_classes(source: str, classes: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each of ``classes`` that an ``except`` clause names,
    alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [(node.lineno, name) for name in map(_class_name, types) if name in classes]
    return found


def unraised_error_classes(classes: set[str], sources: list[str]) -> list[str]:
    """The names among ``classes`` that no ``raise`` in ``sources`` names."""
    raised = {_class_name(node.exc) for source in sources for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Raise) and node.exc is not None}
    return sorted(classes - raised)


ERROR_CLASSES = error_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"))


def test_typed_errors_caught_only_by_the_cli():
    caught = {path.name: caught_error_classes(path.read_text(encoding="utf-8"), ERROR_CLASSES)
              for path in SOURCES if path.name != "cli.py"}
    assert {name: found for name, found in caught.items() if found} == {}


def test_checker_finds_a_caught_error_class():
    errors = ("class FusionGainError(Exception):\n    pass\n"
              "class Degenerate(FusionGainError):\n    pass\n"
              "class Narrow(Degenerate, ValueError):\n    pass\n"
              "class Unrelated(Exception):\n    pass\n")
    classes = error_classes(errors)
    assert classes == {"Degenerate", "Narrow"}
    source = ("from . import errors\ntry:\n    pass\nexcept Degenerate:\n    pass\n"
              "except (OSError, errors.Narrow) as err:\n    pass\n"
              "except FusionGainError:\n    pass\nexcept Unrelated:\n    pass\n"
              "except:\n    pass\n")
    assert caught_error_classes(source, classes) == [(4, "Degenerate"), (6, "Narrow")]


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert ERROR_CLASSES and unraised_error_classes(ERROR_CLASSES, sources) == []


def test_checker_finds_an_unraised_error_class():
    sources = ["from . import errors\ndef f(err):\n    raise errors.Narrow('x') from err\n",
               "def g():\n    raise Other\ndef h(err):\n    raise err\n"]
    assert unraised_error_classes({"Narrow", "Other", "Degenerate"}, sources) == ["Degenerate"]
