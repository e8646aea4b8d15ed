"""Self-checks in the library raise, so ``python -O`` cannot strip them.

An ``assert`` with a message reads as a check on the library's own answer,
yet it vanishes under ``python -O``.  Such checks raise
``RuntimeError("internal verification failure: ...")`` instead; the only
``assert`` statements left narrow a type and carry no message.
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
