"""Every name a module of the package, a test module or a script imports is
used by that module, every module-level function or class of the package,
and every method or property of its classes other than a dunder, is used
somewhere, the exact scalar kernel imports only the standard library, and
the numeric layer only the standard library and its sibling modules.

The package's ``__init__.py`` is skipped by the import check: its imports are
the public re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for pattern in ("src/qonf/*.py", "tests/*.py", "scripts/*.py")
    for p in ROOT.glob(pattern)
    if p != ROOT / "src" / "qonf" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nfrom fractions import Fraction\nx = Fraction(1)\n"
    assert unused_imports(source) == ["line 1: math"]


# where a definition of the package may be used: the benchmark harness looks
# functions up by their name as a string
USERS = sorted(
    p
    for pattern in ("src/qonf/*.py", "tests/*.py", "scripts/*.py", "perfbench/*.py")
    for p in ROOT.glob(pattern)
)


def referenced_names(node) -> set[str]:
    """Names a syntax tree refers to: bare names, attributes, imported names
    and strings that are identifiers."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def reference_sites(users: dict) -> dict:
    """name -> the sites of ``users`` (name -> source) that refer to it.  A
    site is a top-level statement, (user, k); a statement of a top-level
    class body is also a site of its own, (user, k, j)."""
    refs = {}
    for user, source in users.items():
        for k, stmt in enumerate(ast.parse(source).body):
            for name in referenced_names(stmt):
                refs.setdefault(name, set()).add((user, k))
            if isinstance(stmt, ast.ClassDef):
                for j, member in enumerate(stmt.body):
                    for name in referenced_names(member):
                        refs[name].add((user, k, j))
    return refs


def dead_definitions(modules: dict, users: dict) -> list[str]:
    """Module-level functions and classes of ``modules`` (name -> source) that
    no statement of ``users`` (name -> source) refers to, other than the
    definition itself; likewise the methods and properties of their classes,
    dunders aside, with the method as its own definition."""
    refs = reference_sites(users)
    dead = []
    for module, source in modules.items():
        for k, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not {site for site in refs.get(stmt.name, ()) if len(site) == 2} - {(module, k)}:
                    dead.append(f"{module}: {stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for j, member in enumerate(stmt.body):
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))
                        and not refs.get(member.name, set()) - {(module, k), (module, k, j)}):
                    dead.append(f"{module}: {stmt.name}.{member.name}")
    return dead


def test_no_dead_definitions():
    users = {str(p.relative_to(ROOT)): p.read_text() for p in USERS}
    modules = {name: text for name, text in users.items() if name.startswith("src/")}
    assert dead_definitions(modules, users) == []


def test_detects_a_dead_definition():
    source = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "class Unused:\n    pass\n\n"
              "x = used()\n")
    assert dead_definitions({"m": source}, {"m": source}) == ["m: recursive", "m: Unused"]


def test_detects_a_dead_method():
    source = ("class Box:\n"
              "    def __init__(self):\n        self.v = self.helper()\n\n"
              "    def helper(self):\n        return 1\n\n"
              "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
              "    @property\n    def unused(self):\n        return self.v\n\n"
              "    @property\n    def size(self):\n        return self.v\n\n"
              "    def _private(self):\n        return 2\n\n"
              "b = Box()\n"
              "n = b.size\n")
    assert dead_definitions({"m": source}, {"m": source}) == [
        "m: Box.recursive", "m: Box.unused", "m: Box._private"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports; "." for a relative
    import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add(node.module.split(".")[0] if node.level == 0 else ".")
    return out


def test_the_exact_kernel_imports_only_the_standard_library():
    # rings is the bottom of the package: no numpy, no sibling module
    source = (ROOT / "src" / "qonf" / "rings.py").read_text()
    assert imported_modules(source) - sys.stdlib_module_names == set()


def test_the_numeric_layer_imports_only_the_standard_library():
    # qspecial sums its series in plain loops: no numpy, only its siblings
    source = (ROOT / "src" / "qonf" / "qspecial.py").read_text()
    assert imported_modules(source) - sys.stdlib_module_names == {"."}


def test_detects_a_non_standard_import():
    source = "import numpy as np\nfrom struct import pack\nfrom .polyq import Poly\nimport os.path\n"
    assert imported_modules(source) - sys.stdlib_module_names == {"numpy", "."}
