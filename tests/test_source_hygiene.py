"""Every module of the package uses each name it imports.

A name imported and never read is a leftover of deleted code.  The check
parses each module with the standard library's ast: a name counts as used
when it is read anywhere in the module, annotations included, or listed
in the module's __all__.  The package's __init__ imports to re-export and
is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsecoh"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """name bound by an import -> line of that import"""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        "line %d: %s" % (line, name)
        for name, line in imported_names(tree).items()
        if name not in used
    )


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_an_import_left_behind():
    source = (
        "from .ringcore import Poly, mono_divides, mono_lcm\n"
        "import itertools\n"
        "def f(a: Poly):\n"
        "    return mono_lcm(a, a)\n"
    )
    assert unused_imports(source) == ["line 1: mono_divides", "line 2: itertools"]
