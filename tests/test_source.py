"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import numpy as np

import gatefid
from gatefid import sampling, verify

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


def _module_defs(trees) -> dict[str, list]:
    """Each module-level function or class of the package, by name."""
    defs = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
    return defs


def _reachable_names(defs, roots) -> set[str]:
    """Every name in the private definitions ``roots`` and in the private
    definitions they name, transitively."""
    names, todo, seen = set(), list(roots), set()
    while todo:
        root = todo.pop()
        if root in seen:
            continue
        seen.add(root)
        for node in defs[root]:
            found = _names(node)
            names |= found
            todo += [name for name in found if name.startswith("_") and name in defs]
    return names


def test_sampler_stays_behind_its_stream(monkeypatch):
    # The closed forms need no sampler, and the batch size and the seeding
    # belong to the one stream, sampling.state_batches. How a draw is stored
    # (unnormalized rows v and r2 = |v|^2) stays inside sampling too: every
    # other module takes overlaps from its one kernel, sampling._overlaps,
    # or through sampling's lane runner.
    # Only sampling starts a thread: the lone stream's worker advances the
    # stream's drawer, _draws, and the lane runner's worker runs _lane. Both
    # run private code that names no public gatefid function: perfbench's
    # tracer wraps those with one span stack, which is not thread-safe. So
    # verify builds its operators before it calls the runner, and hands it
    # private reductions only.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert "sampling" not in _names(trees["moments.py"])
    assert [name for name, tree in trees.items() if "_BATCH" in _names(tree)] == ["sampling.py"]
    assert [name for name, tree in trees.items() if "SeedSequence" in _names(tree)] == [
        "sampling.py"
    ]
    stream = {"state_batches", "_draws", "_gaussian_rows", "r2"}
    outside = {name: _names(tree) for name, tree in trees.items() if name != "sampling.py"}
    assert [name for name, names in outside.items() if stream & names] == []
    assert [name for name, tree in trees.items() if "expectation" in _names(tree)] == []
    threads = {"threading", "concurrent"}
    assert [name for name, tree in trees.items() if threads & _names(tree)] == ["sampling.py"]
    calls = [node for node in ast.walk(trees["sampling.py"]) if isinstance(node, ast.Call)]
    submitted = {
        ast.unparse(node.args[0])
        for node in calls
        if isinstance(node.func, ast.Attribute) and node.func.attr == "submit"
    }
    assert submitted == {"next", "_lane"}
    advanced = [ast.unparse(node.args[0]) for node in calls if ast.unparse(node.func) == "_ahead"]
    assert advanced and all(arg.startswith("_draws(") for arg in advanced)

    jobs = []
    lanes = sampling._lanes

    def recording(batch):
        jobs.extend(batch)
        return lanes(batch)

    monkeypatch.setattr(sampling, "_lanes", recording)
    assert verify.run_checks("full")["passed"]
    assert len(jobs) == 31
    reductions = set()
    for ops, samples, seed, reduce, *args in jobs:
        assert isinstance(ops, np.ndarray) and ops.dtype == np.complex128
        assert reduce.__module__.startswith("gatefid.") and reduce.__name__.startswith("_")
        reductions.add(reduce.__name__)
    assert reductions == {"_fold", "_ratio_sums"}
    defs = _module_defs(trees)
    public = {
        name
        for name, nodes in defs.items()
        if not name.startswith("_") and any(isinstance(node, ast.FunctionDef) for node in nodes)
    }
    assert _reachable_names(defs, {"_draws", "_lane"} | reductions) & public == set()


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
