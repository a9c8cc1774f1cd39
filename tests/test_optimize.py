import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from gatefid import (
    FAMILIES,
    GateFamily,
    Objective,
    OptimizeConfig,
    build_family,
    evaluate_objective,
    optimize,
)
from gatefid.optimize import EvaluatorError

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
        cfg = OptimizeConfig(start=(2.0,), box=((-PI, PI),), record_trace=True)
        res = optimize(phase_family(), Objective("mean"), cfg)
        assert res.trace is not None
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


def test_registry_families_have_expected_dims():
    assert FAMILIES["phase"].param_count == 1
    assert FAMILIES["leaky"].dim == 3
    assert FAMILIES["leaky"].subspace == (0, 1)
    with pytest.raises(KeyError):
        build_family("nope", np.eye(2))
