"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages the library imports, and importing modhom loads none
of them until a call needs one."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "modhom"


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in project["dependencies"]}


def third_party_imports() -> set[str]:
    """Top-level names of every absolute, non-stdlib import in the package,
    including imports inside functions."""
    found: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.split(".")[0] for name in names)
    return {name for name in found if name not in sys.stdlib_module_names}


def function_level_package_imports() -> list[tuple[str, str, str]]:
    """(module, imported module, name) for every ``from .x import name``
    inside a function body of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        deferred = {
            id(node): node
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level
        }
        for node in deferred.values():
            found += [(path.stem, node.module, a.name) for a in node.names]
    return found


def test_only_import_cycles_defer_package_imports():
    """An import of the package's own code is deferred into a function only
    where a top-level import would close a cycle: graphs needs the primality
    test of counting, which imports graphs, and counting needs the order-p
    plan of reduction, which imports counting."""
    assert sorted(function_level_package_imports()) == [
        ("counting", "reduction", "_plan"),
        ("counting", "reduction", "_plan"),
        ("graphs", "counting", "is_prime"),
    ]


def test_declared_dependencies_are_the_imported_ones():
    assert third_party_imports() == declared_dependencies()


def test_import_loads_no_undeclared_package():
    """Importing modhom loads no third-party package at all; numpy loads on
    the first call that builds a table."""
    probe = (
        "import sys; before = set(sys.modules); import modhom; "
        "third = lambda: {m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names); print(' '.join(sorted(third()))); "
        "g = modhom.path_graph(3); modhom.count_homs(g, g); "
        "print(' '.join(sorted(third())))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["modhom"]
    assert set(out[1].split()) == {"modhom"} | declared_dependencies()
