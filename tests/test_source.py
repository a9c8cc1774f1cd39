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


def _names(tree) -> set[str]:
    """Every identifier, attribute and imported module or name in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def test_sampler_stays_behind_its_stream():
    # The closed forms need no sampler, and the batch size and the seeding
    # belong to the one stream, sampling.state_batches. How a draw is stored
    # (unnormalized rows v and r2 = |v|^2) stays inside sampling too: every
    # other module takes overlaps from its one kernel, sampling._overlaps.
    # Only the stream starts a thread, and its worker runs _gaussian_rows,
    # which calls numpy alone: perfbench's tracer wraps public gatefid
    # functions with one span stack, which is not thread-safe.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert "sampling" not in _names(trees["moments.py"])
    assert [name for name, tree in trees.items() if "_BATCH" in _names(tree)] == ["sampling.py"]
    assert [name for name, tree in trees.items() if "SeedSequence" in _names(tree)] == [
        "sampling.py"
    ]
    stream = {"state_batches", "_draw_batches", "_gaussian_rows", "r2"}
    outside = {name: _names(tree) for name, tree in trees.items() if name != "sampling.py"}
    assert [name for name, names in outside.items() if stream & names] == []
    assert [name for name, tree in trees.items() if "expectation" in _names(tree)] == []
    threads = {"threading", "concurrent"}
    assert [name for name, tree in trees.items() if threads & _names(tree)] == ["sampling.py"]
    submitted = [
        ast.unparse(node.args[0])
        for node in ast.walk(trees["sampling.py"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
    ]
    assert submitted == ["_gaussian_rows"]


def test_public_api_is_the_agreed_list():
    # A new public name has to be added here on purpose.
    assert sorted(gatefid.__all__) == [
        "DEFAULT_TOL",
        "DegenerateSpectrumError",
        "FAMILIES",
        "FidelityDistribution",
        "GateFamily",
        "GateSpec",
        "Histogram",
        "HistogramComparison",
        "KrausMap",
        "McEstimate",
        "MomentReport",
        "NoAcceptanceError",
        "NotNormalError",
        "Objective",
        "OptimizationResult",
        "OptimizeConfig",
        "QubitSpectrum",
        "adjoint",
        "as_matrix",
        "avg_fidelity",
        "build_family",
        "compare_histogram",
        "conditional_fidelity",
        "depolarizing_kraus",
        "eig2_normal",
        "evaluate_objective",
        "fourth_moment_general",
        "gate_moments",
        "kraus_avg_fidelity",
        "mc_moment",
        "mc_sample",
        "monomial_integral_exact",
        "normal_pdf",
        "optimize",
        "quadrature_moments",
        "variance",
    ]


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
