"""The package carries no ``assert`` statements, so ``python -O`` changes nothing."""

import ast
from pathlib import Path

import liquidpower

PACKAGE = Path(liquidpower.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
