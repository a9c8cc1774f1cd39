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


def _is_errstate_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "errstate"
    )


def test_module_level_errstate_only_decorates():
    # One np.errstate object cannot be entered twice (numpy 2 raises
    # TypeError), so a shared one may only decorate functions, which enter
    # it once per call; a with block needs its own np.errstate(...).
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        shared = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign) and _is_errstate_call(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        decorators = {
            id(dec)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for dec in node.decorator_list
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and node.id in shared
            and isinstance(node.ctx, ast.Load)
            and id(node) not in decorators
        ]
    assert found == []
