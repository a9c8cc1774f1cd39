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


def _call_sites(trees, name) -> list[str]:
    """``module:definition`` for each call of ``name`` in ``trees``, by the
    module-level definition it is in (``<module>`` outside any)."""
    sites = []
    for module, tree in trees.items():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else ast.unparse(func)
                    if called == name:
                        sites.append(f"{module}:{where}")
    return sites


def test_sampler_stays_behind_its_stream(monkeypatch):
    # The closed forms need no sampler, and the batch size and the seeding
    # belong to the one stream, sampling._draws. How a draw is stored
    # (unnormalized rows v and r2 = |v|^2) stays inside sampling too: every
    # path, mc_moment, mc_sample and verify's checks, takes overlaps from
    # its one kernel through the one runner, sampling._lanes.
    # Only sampling starts a thread, and only in _lanes, which also holds
    # the one BLAS cap: its one worker runs the second lane, _lane, and only
    # a lane draws a batch. Lanes run private code that names no public
    # gatefid function: perfbench's tracer wraps those with one span stack,
    # which is not thread-safe. So verify builds its operators before it
    # calls the runner, and hands it private steps only.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert "sampling" not in _names(trees["moments.py"])
    assert [name for name, tree in trees.items() if "_BATCH" in _names(tree)] == ["sampling.py"]
    assert [name for name, tree in trees.items() if "SeedSequence" in _names(tree)] == [
        "sampling.py"
    ]
    stream = {"_draws", "_gaussian_rows", "r2"}
    outside = {name: _names(tree) for name, tree in trees.items() if name != "sampling.py"}
    assert [name for name, names in outside.items() if stream & names] == []
    assert [name for name, tree in trees.items() if "expectation" in _names(tree)] == []
    threads = {"threading", "concurrent"}
    assert [name for name, tree in trees.items() if threads & _names(tree)] == ["sampling.py"]
    # Only sampling loads a native library: numpy's OpenBLAS, to keep it on
    # one thread while a stream runs.
    assert [name for name, tree in trees.items() if "ctypes" in _names(tree)] == ["sampling.py"]
    calls = [node for node in ast.walk(trees["sampling.py"]) if isinstance(node, ast.Call)]
    submitted = {
        ast.unparse(node.args[0])
        for node in calls
        if isinstance(node.func, ast.Attribute) and node.func.attr == "submit"
    }
    assert submitted == {"_lane"}
    assert _call_sites(trees, "ThreadPoolExecutor") == ["sampling.py:_lanes"]
    assert _call_sites(trees, "_one_blas_thread") == ["sampling.py:_lanes"]
    assert _call_sites(trees, "_draws") == ["sampling.py:_lane"]
    # One schedule: no draw-ahead beside the lanes.
    assert "_ahead" not in _names(trees["sampling.py"])

    # run_checks hands every Monte-Carlo job of its level to one lane run,
    # as the plans built them: one stream per check and dimension.
    runs = []
    lanes = sampling._lanes

    def recording(batch):
        runs.append(list(batch))
        return lanes(batch)

    monkeypatch.setattr(sampling, "_lanes", recording)
    assert verify.run_checks("quick")["passed"]
    assert [len(jobs) for jobs in runs] == [3]
    runs.clear()
    assert verify.run_checks("full")["passed"]
    assert [len(jobs) for jobs in runs] == [10]
    steps = set()
    for ops, samples, seed, step, *args in runs[0]:
        assert isinstance(ops, np.ndarray) and ops.dtype == np.complex128
        assert step.__module__.startswith("gatefid.") and step.__name__.startswith("_")
        steps.add(step.__name__)
    assert steps == {"_fold", "_ratio_tallies"}
    defs = _module_defs(trees)
    public = {
        name
        for name, nodes in defs.items()
        if not name.startswith("_") and any(isinstance(node, ast.FunctionDef) for node in nodes)
    }
    assert _reachable_names(defs, {"_draws", "_lane"} | steps) & public == set()


def test_one_rule_for_a_target():
    # GateSpec, kraus_avg_fidelity and GateFamily (so build_family and the
    # FAMILIES registry too) take a target through one check, which alone
    # tests unitarity and validates a selector; comparison_matrix trusts the
    # selector its callers hold, and optimize names neither helper.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    for helper in ("_is_unitary", "check_selector"):
        assert set(_call_sites(trees, helper)) == {"moments.py:_checked_target"}
        assert helper not in _names(trees["optimize.py"])
    assert set(_call_sites(trees, "_checked_target")) == {
        "moments.py:GateSpec",
        "moments.py:kraus_avg_fidelity",
        "optimize.py:GateFamily",
    }


def _handler_raises(trees) -> set[tuple[str, str]]:
    """``(module:definition, exception)`` for each exception that an
    ``except`` handler raises by name, by the module-level definition it is in."""
    found = set()
    for module, tree in trees.items():
        for top in tree.body:
            where = f"{module}:{getattr(top, 'name', '<module>')}"
            for handler in ast.walk(top):
                if isinstance(handler, ast.ExceptHandler):
                    for node in ast.walk(handler):
                        if isinstance(node, ast.Raise) and node.exc is not None:
                            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                            found.add((where, ast.unparse(exc)))
    return found


def test_errors_keep_the_type_they_are_raised_with():
    # cli.main alone maps an error's type to an exit code (ConfigError or
    # OSError 1, any other ValueError 2), and code that refuses an input
    # raises ConfigError itself. So no handler re-labels an error as a broken
    # invariant, and only the file reader and the CLI's two flag parsers turn
    # one into a ConfigError: a file's error named with its path, a flag's
    # text that does not parse. The CLI has no error class of its own.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    raised = _handler_raises(trees)
    assert {where for where, exc in raised if exc == "InvariantError"} == set()
    assert {where for where, exc in raised if exc == "ConfigError"} == {
        "serialize.py:_read",
        "cli.py:_parse_complex",
        "cli.py:_parse_subspace",
    }
    bases = {
        ast.unparse(base)
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ClassDef)
        for base in node.bases
    }
    assert not {base for base in bases if base.endswith(("Error", "Exception"))}


def test_only_serialize_reads_files():
    # One reader with one rule set for every input file: serialize opens,
    # decodes and parses each, so no other module names open, json.load or
    # json.loads.
    readers = {"open", "load", "loads"}
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert [name for name, tree in trees.items() if readers & _names(tree)] == ["serialize.py"]


def test_public_api_is_the_agreed_list():
    # A new public name has to be added here on purpose.
    assert sorted(gatefid.__all__) == [
        "DegenerateSpectrumError",
        "FidelityDistribution",
        "GateFamily",
        "GateSpec",
        "Histogram",
        "HistogramComparison",
        "KrausMap",
        "McEstimate",
        "MomentReport",
        "NoAcceptanceError",
        "Objective",
        "OptimizationResult",
        "OptimizeConfig",
        "QubitSpectrum",
        "avg_fidelity",
        "build_family",
        "compare_histogram",
        "conditional_fidelity",
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
