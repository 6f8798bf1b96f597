"""Every module of the package, the tests and the demos uses each name it
imports; every module of the package reads each private name it defines
and imports nothing outside the standard library.

A name imported and never read, or a module-level `_private` function,
class or assignment that its own module never reads, is a leftover of
deleted code.  The checks parse each module with the standard library's
ast: a name counts as used when it is read anywhere in the module,
annotations included, or (for imports) listed in the module's __all__.
The package's __init__ imports to re-export and is left out of the import
check.  The package promises no runtime dependency beyond the standard
library, so every import in it must be relative, from __future__, or of a
module in sys.stdlib_module_names.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarsecoh"


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
    modules += sorted((ROOT / "tests").glob("*.py"))
    modules += sorted((ROOT / "demos").glob("*.py"))
    assert modules
    found = {
        str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in modules
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_an_import_left_behind():
    source = (
        "from .ringcore import Poly, mono_divides, mono_lcm\n"
        "import itertools\n"
        "def f(a: Poly):\n"
        "    return mono_lcm(a, a)\n"
    )
    assert unused_imports(source) == ["line 1: mono_divides", "line 2: itertools"]


def unread_private_names(source: str) -> list[str]:
    """Module-level `_name` functions, classes and assignment targets that
    the module never reads; dunder names are left out."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    defined[t.id] = node.lineno
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        "line %d: %s" % (line, name)
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_no_module_defines_a_private_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: unread_private_names(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_a_private_helper_left_behind():
    source = (
        "__all__ = ['f']\n"
        "_CAP = 3\n"
        "_cache: dict = {}\n"
        "class _Old: pass\n"
        "def _helper(): return _CAP\n"
        "def f():\n"
        "    _cache = {}\n"
        "    return _helper()\n"
    )
    assert unread_private_names(source) == ["line 3: _cache", "line 4: _Old"]


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append("line %d: %s" % (node.lineno, name))
    return sorted(found)


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: non_stdlib_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_a_third_party_import():
    source = (
        "from __future__ import annotations\n"
        "import sympy\n"
        "from fractions import Fraction\n"
        "from .ringcore import Poly\n"
        "import os.path, numpy.linalg as la\n"
        "from hypothesis.strategies import integers\n"
    )
    assert non_stdlib_imports(source) == [
        "line 2: sympy",
        "line 5: numpy.linalg",
        "line 6: hypothesis.strategies",
    ]


def package_imports(source: str) -> list[str]:
    """Modules of the package that a module imports, by relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [node.module] if node.module else [a.name for a in node.names]
    return sorted(found)


def test_the_scenario_format_imports_no_computation():
    # the cap rule lives in linalg, beside DirectedLimit; the scenario
    # format reads it there and needs neither the towers nor the Cech route
    found = package_imports((PACKAGE / "scenario.py").read_text())
    assert "linalg" in found
    assert not {"homres", "localcoh"} & set(found)


def test_the_check_sees_a_computation_imported_by_the_scenario_format():
    source = (
        "from __future__ import annotations\n"
        "from .homres import PowerTower\n"
        "from .linalg import N_CAP\n"
        "from . import localcoh\n"
        "import re\n"
    )
    assert package_imports(source) == ["homres", "linalg", "localcoh"]


# Standard-library modules the command line must not load: it stamps its
# reports with time, and reads and writes files with open.
UNLOADED = {"datetime", "pathlib", "typing"}


def test_importing_the_cli_loads_no_datetime_pathlib_or_typing():
    # in a plain interpreter (python -S), after every other standard-library
    # module the package imports, so only what the package pulls in counts
    stdlib = set()
    for p in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                stdlib.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                stdlib.add(node.module)
    baseline = sorted(stdlib - UNLOADED - {"__future__"})
    code = (
        "import sys\n"
        "for name in %r:\n"
        "    __import__(name)\n"
        "before = set(sys.modules)\n"
        "import coarsecoh.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    ) % (baseline,)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = ast.literal_eval(run.stdout)
    assert "coarsecoh.cli" in loaded
    assert UNLOADED & set(loaded) == set()
