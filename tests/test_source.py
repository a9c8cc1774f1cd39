"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import gatefid

PACKAGE = Path(gatefid.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so an invariant guarded by one is unguarded there.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{node.lineno}" for node in asserts]
    assert found == []
