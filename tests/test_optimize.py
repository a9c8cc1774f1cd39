import importlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from gatefid import (
    GateFamily,
    Objective,
    OptimizeConfig,
    build_family,
    evaluate_objective,
    optimize,
)
from gatefid.linalg import ConfigError
from gatefid.moments import InvariantError
from gatefid.optimize import FAMILIES, EvaluatorError

PI = np.pi
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def phase_family():
    return build_family("phase", np.eye(2))


class TestEvaluateObjective:
    def test_phase_perfect(self):
        assert evaluate_objective(phase_family(), Objective("mean"), [0.0]) == 1.0

    def test_phase_opposite(self):
        got = evaluate_objective(phase_family(), Objective("mean"), [PI])
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_leaky_dark_only(self):
        fam = build_family("leaky", np.eye(3))
        got = evaluate_objective(fam, Objective("mean"), [0.0, 0.3])
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_mean_minus_k_sigma(self):
        fam = phase_family()
        mean = evaluate_objective(fam, Objective("mean"), [PI / 2])
        penalized = evaluate_objective(
            fam, Objective("mean_minus_k_sigma", k=2.0), [PI / 2]
        )
        assert penalized < mean

    def test_min_support_is_distribution_floor(self):
        got = evaluate_objective(phase_family(), Objective("min_support"), [PI / 2])
        assert got == pytest.approx(np.cos(PI / 4) ** 2, abs=1e-12)

    def test_min_support_degenerate_returns_point_mass(self):
        assert evaluate_objective(phase_family(), Objective("min_support"), [0.0]) == 1.0

    def test_min_support_needs_qubit_family(self):
        fam = GateFamily(
            dim=3,
            param_count=1,
            evaluator=lambda p: np.diag([1.0, np.exp(1j * p[0]), 1.0]),
            target=np.eye(3),
        )
        with pytest.raises(ValueError, match="min_support"):
            evaluate_objective(fam, Objective("min_support"), [0.5])

    def test_min_support_needs_normal_family(self):
        fam = GateFamily(
            dim=2,
            param_count=1,
            evaluator=lambda p: np.array([[1.0, p[0]], [0.0, 0.5]]),
            target=np.eye(2),
        )
        with pytest.raises(ValueError, match="min_support"):
            evaluate_objective(fam, Objective("min_support"), [0.5])

    @pytest.mark.parametrize("kind", ["mean", "mean_minus_k_sigma"])
    def test_overflowing_moments_raise_without_a_warning(self, kind):
        # Called directly, outside optimize: the moments of 1e200 I overflow,
        # and the RuntimeWarning filter turns any numpy warning into an error.
        fam = GateFamily(dim=2, param_count=1, evaluator=lambda p: 1e200 * np.eye(2), target=np.eye(2))
        with pytest.raises(InvariantError, match="not a representable"):
            evaluate_objective(fam, Objective(kind, k=1.0), [0.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Objective("max_support")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            Objective("mean_minus_k_sigma", k=-1.0)


class TestOptimize:
    def test_phase_gate_from_two(self):
        res = optimize(
            phase_family(),
            Objective("mean"),
            OptimizeConfig(start=(2.0,), box=((-PI, PI),), f_tol=1e-12),
        )
        assert res.converged
        assert abs(res.best_params[0]) < 1e-6
        assert 1.0 - res.best_value < 1e-10

    def test_two_phase_reaches_target(self):
        target = np.diag([1.0, np.exp(1j * PI / 4)])
        fam = build_family("two_phase", target)
        res = optimize(
            fam,
            Objective("mean"),
            OptimizeConfig(start=(2.0, -2.0), box=((-PI, PI),) * 2, f_tol=1e-12),
        )
        assert res.best_value == pytest.approx(1.0, abs=1e-10)
        dphi = (res.best_params[1] - res.best_params[0]) % (2 * PI)
        assert dphi == pytest.approx(PI / 4, abs=1e-4)

    def test_polar_family_pushes_to_box_edge(self):
        fam = build_family("polar_eig", np.eye(2))
        res = optimize(
            fam,
            Objective("mean"),
            OptimizeConfig(start=(0.6, 2.5), box=((0.5, 0.8), (-PI, PI))),
        )
        assert res.best_params[0] == pytest.approx(0.8, abs=1e-6)
        assert res.best_params[1] == pytest.approx(PI / 8, abs=1e-3)
        assert res.best_value == pytest.approx((0.49 + 0.64 + 0.56) / 3, abs=1e-9)

    def test_leaky_pushes_magnitude_to_one(self):
        fam = build_family("leaky", np.eye(3))
        res = optimize(
            fam,
            Objective("mean"),
            OptimizeConfig(start=(0.3, 0.5), box=((0.0, 1.0), (-PI, PI))),
        )
        assert res.best_params[0] == pytest.approx(1.0, abs=1e-6)
        assert res.best_value == pytest.approx(1.0, abs=1e-8)

    def test_never_below_start(self, rng):
        fam = build_family("polar_eig", np.eye(2))
        obj = Objective("mean")
        for _ in range(10):
            start = (rng.uniform(0.5, 0.8), rng.uniform(-PI, PI))
            res = optimize(
                fam, obj, OptimizeConfig(start=start, box=((0.5, 0.8), (-PI, PI)))
            )
            assert res.best_value >= evaluate_objective(fam, obj, start) - 1e-15

    def test_unitary_mean_bounded_by_one(self):
        res = optimize(
            build_family("two_phase", np.eye(2)),
            Objective("mean"),
            OptimizeConfig(start=(1.0, -1.0), box=((-PI, PI),) * 2),
        )
        assert res.best_value <= 1.0 + 1e-12

    def test_shift_reparameterization_invariance(self):
        shift = 0.7
        base = phase_family()
        shifted = GateFamily(
            dim=2,
            param_count=1,
            evaluator=lambda p: base.evaluator(p - shift),
            target=np.eye(2),
        )
        res_base = optimize(
            base,
            Objective("mean"),
            OptimizeConfig(start=(1.2,), box=((-PI, PI),)),
        )
        res_shift = optimize(
            shifted,
            Objective("mean"),
            OptimizeConfig(start=(1.2 + shift,), box=((-PI + shift, PI + shift),)),
        )
        assert abs(res_base.best_value - res_shift.best_value) <= 1e-10

    def test_deterministic(self):
        cfg = OptimizeConfig(start=(2.0,), box=((-PI, PI),))
        a = optimize(phase_family(), Objective("mean"), cfg)
        b = optimize(phase_family(), Objective("mean"), cfg)
        assert np.array_equal(a.best_params, b.best_params)
        assert a.best_value == b.best_value
        assert a.evaluations == b.evaluations

    def test_best_value_matches_best_params(self):
        obj = Objective("mean")
        res = optimize(
            phase_family(),
            obj,
            OptimizeConfig(start=(2.0,), box=((-PI, PI),)),
        )
        assert abs(
            res.best_value - evaluate_objective(phase_family(), obj, res.best_params)
        ) <= 1e-12

    def test_trace_recorded(self):
        cfg = OptimizeConfig(start=(2.0,), box=((-PI, PI),))
        res = optimize(phase_family(), Objective("mean"), cfg)
        assert len(res.trace) == res.evaluations
        assert res.trace[0][1] == pytest.approx(
            evaluate_objective(phase_family(), Objective("mean"), [2.0])
        )

    def test_start_outside_box(self):
        with pytest.raises(ValueError, match="outside"):
            optimize(
                phase_family(),
                Objective("mean"),
                OptimizeConfig(start=(5.0,), box=((-PI, PI),)),
            )

    def test_zero_tolerances_allowed(self):
        # A NaN or negative one is refused (tests/test_cli.py); 0 runs to max_evals.
        cfg = OptimizeConfig(start=(2.0,), box=((-PI, PI),), max_evals=40, x_tol=0.0, f_tol=0.0)
        res = optimize(phase_family(), Objective("mean"), cfg)
        assert (res.evaluations, res.converged, len(res.trace)) == (40, False, 40)

    def test_min_support_refused_before_any_probe_off_a_qubit(self):
        probes = []

        def evaluator(params):
            probes.append(params)
            return np.eye(3)

        fam = GateFamily(dim=3, param_count=1, evaluator=evaluator, target=np.eye(3), subspace=(0, 1, 2))
        cfg = OptimizeConfig(start=(0.5,), box=((-PI, PI),))
        with pytest.raises(ConfigError, match="min_support needs a 2x2 comparison matrix, not 3x3"):
            optimize(fam, Objective("min_support"), cfg)
        assert probes == []

    def test_min_support_on_a_non_normal_probe_is_not_an_input_error(self):
        # Whether a probe's 2x2 matrix is normal is known only at the probe.
        fam = GateFamily(
            dim=2, param_count=1, evaluator=lambda p: np.array([[1.0, p[0]], [0.0, 0.5]]), target=np.eye(2)
        )
        with pytest.raises(ValueError, match="min_support") as err:
            optimize(fam, Objective("min_support"), OptimizeConfig(start=(0.5,), box=((-PI, PI),)))
        assert not isinstance(err.value, ConfigError)

    def test_max_evals_too_small(self):
        with pytest.raises(ValueError, match="max_evals"):
            optimize(
                phase_family(),
                Objective("mean"),
                OptimizeConfig(start=(1.0,), box=((-PI, PI),), max_evals=2),
            )

    def test_evaluator_failure_carries_probe_point(self):
        def broken(params):
            raise RuntimeError("boom")

        fam = GateFamily(dim=2, param_count=1, evaluator=broken, target=np.eye(2))
        with pytest.raises(EvaluatorError) as err:
            optimize(
                fam,
                Objective("mean"),
                OptimizeConfig(start=(1.0,), box=((-PI, PI),)),
            )
        assert err.value.params is not None


class TestProbesVisible:
    # Every probe goes through the module-level evaluate_objective, so a
    # wrapper bound there (as the benchmark's tracer binds one) sees each.
    # The package attribute gatefid.optimize is the tuner function, not the
    # module, hence importlib.
    @pytest.mark.parametrize("kind", ["mean", "mean_minus_k_sigma", "min_support"])
    def test_each_probe_goes_through_evaluate_objective(self, monkeypatch, kind):
        module = importlib.import_module("gatefid.optimize")
        calls = []
        inner = module.evaluate_objective

        def counting(fam, obj, params):
            calls.append(type(params))
            return inner(fam, obj, params)

        monkeypatch.setattr(module, "evaluate_objective", counting)
        res = optimize(
            build_family("two_phase", np.eye(2)),
            Objective(kind, 1.0 if kind == "mean_minus_k_sigma" else 0.0),
            OptimizeConfig(start=(2.0, -2.0), box=((-PI, PI),) * 2),
        )
        assert len(calls) == res.evaluations > 3
        assert set(calls) == {np.ndarray}

    def test_evaluator_and_result_see_arrays(self):
        seen = []

        def evaluator(params):
            seen.append((type(params), params.dtype, params.shape))
            return np.diag([1.0, np.exp(1j * params[0])])

        fam = GateFamily(dim=2, param_count=1, evaluator=evaluator, target=np.eye(2))
        cfg = OptimizeConfig(start=(2.0,), box=((-PI, PI),))
        res = optimize(fam, Objective("mean"), cfg)
        assert set(seen) == {(np.ndarray, np.dtype(float), (1,))}
        assert isinstance(res.best_params, np.ndarray) and res.best_params.shape == (1,)
        assert all(isinstance(x, np.ndarray) for x, _ in res.trace)


class TestGridOracle:
    @pytest.mark.parametrize(
        "name", ["phase_gate", "two_phase_gate", "leaky_gate", "polar_eig_gate"]
    )
    def test_builtin_problems_beat_grid(self, name):
        problem = json.loads((PROBLEMS / f"{name}.json").read_text())
        from gatefid.serialize import matrix_from_obj

        fam = build_family(
            problem["family"],
            matrix_from_obj(problem["target"]),
            subspace=problem.get("subspace"),
        )
        obj = Objective(problem["objective"]["kind"], problem["objective"].get("k", 0.0))
        cfg = OptimizeConfig(
            start=tuple(problem["start"]),
            box=tuple((lo, hi) for lo, hi in problem["box"]),
            f_tol=problem.get("f_tol", 1e-10),
        )
        res = optimize(fam, obj, cfg)
        axes = [np.linspace(lo, hi, 200) for lo, hi in cfg.box]
        grid_best = max(
            evaluate_objective(fam, obj, point)
            for point in itertools.product(*axes)
        )
        assert res.best_value >= grid_best - cfg.f_tol


# Targets the one target rule refuses, with the family they are given to.
REFUSED_TARGETS = {
    "three_identity": ("phase", 3 * np.eye(2), "unitary within 1e-10"),
    "huge_identity": ("phase", 1e200 * np.eye(2), "unitary within 1e-10"),
    "leaky_not_block_diagonal": ("leaky", np.eye(3)[[0, 2, 1]], "block-diagonal over the subspace"),
    "leaky_not_unitary_on_subspace": ("leaky", np.diag([1.0, 0.5, 1.0]), "unitary on the subspace"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_TARGETS))
def test_family_refuses_a_target_that_is_not_unitary(case):
    # A family checks its target as GateSpec does, so no probe ever compares
    # against a map that is not unitary where the fidelity is taken.
    name, target, message = REFUSED_TARGETS[case]
    with pytest.raises(ConfigError, match=message):
        build_family(name, target)
    fam = FAMILIES[name]
    with pytest.raises(ValueError, match=message):
        GateFamily(fam.dim, fam.param_count, fam.evaluator, target, fam.subspace)


def test_family_checks_its_subspace():
    assert GateFamily(3, 2, FAMILIES["leaky"].evaluator, np.eye(3), [0, 1]).subspace == (0, 1)
    with pytest.raises(ConfigError, match="strictly increasing"):
        GateFamily(3, 2, FAMILIES["leaky"].evaluator, np.eye(3), (1, 0))


def test_registry_families_have_expected_dims():
    assert FAMILIES["phase"].param_count == 1
    assert FAMILIES["leaky"].dim == 3
    assert FAMILIES["leaky"].subspace == (0, 1)
    with pytest.raises(KeyError):
        build_family("nope", np.eye(2))
