"""Checks on the library's own source, read as syntax trees.

Self-checks in the library raise, so ``python -O`` cannot strip them.  An
``assert`` with a message reads as a check on the library's own answer,
yet it vanishes under ``python -O``.  Such checks raise
``RuntimeError("internal verification failure: ...")`` instead; the only
``assert`` statements left narrow a type and carry no message.

Every name a module imports at its top level is read in that module, or
its import line says why not with ``# noqa: F401``.  The package's
``__init__.py`` imports to re-export and is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "modhom"


def asserts_with_a_message() -> list[str]:
    """``module:line`` of every ``assert`` in the package that carries a
    message."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) and node.msg is not None:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_self_check_is_an_assert():
    assert asserts_with_a_message() == []


def unread_imports() -> list[str]:
    """``module:line name`` of every name a module of the package imports
    at its top level and never reads, unless the import carries
    ``# noqa: F401``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{path.stem}:{alias.lineno} {name}")
    return found


def test_every_top_level_import_is_read():
    assert unread_imports() == []
