"""Invariants must raise real errors: an ``assert`` vanishes under
``python -O``, so no module of the package may contain one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bipblocks"


def test_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
