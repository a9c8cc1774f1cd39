"""Acceptance suite: one test per release criterion, fixed seeds throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from gatefid import (
    GateSpec,
    Objective,
    OptimizeConfig,
    QubitSpectrum,
    avg_fidelity,
    build_family,
    compare_histogram,
    conditional_fidelity,
    evaluate_objective,
    fourth_moment_general,
    kraus_avg_fidelity,
    mc_moment,
    mc_sample,
    monomial_integral_exact,
    normal_pdf,
    optimize,
    quadrature_moments,
    variance,
)
from gatefid import sampling
from gatefid.moments import depolarizing_kraus
from gatefid.serialize import matrix_from_obj
from gatefid.verify import (
    _conditional_job,
    _pdf_cdf_gap,
    _ratio_estimate,
    reference_matrix,
    reference_spectrum,
)
from conftest import (
    fourth_by_eigenvalues,
    haar_states,
    random_antihermitian,
    random_hermitian,
    random_unit_disc_matrix,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_01_reference_mean():
    mean = avg_fidelity(reference_matrix())
    explicit = (0.49 + 0.64 + 0.56 * np.cos(4 * np.pi / 5 - np.pi / 8)) / 3
    assert f"{mean:.2f}" == "0.28"
    assert abs(mean - explicit) <= 1e-12
    report(1, f"mean {mean:.6f} prints as 0.28 and matches the explicit form")


def test_criterion_02_reference_distribution():
    dist = normal_pdf(reference_spectrum())
    hist, _ = mc_sample(reference_matrix(), 50, 1_000_000, seed=2026)
    cmp_ = compare_histogram(dist, hist)
    ratio = cmp_.chi_square / cmp_.dof
    assert ratio < 1.5
    assert cmp_.sup_norm_density_gap < 0.05
    report(2, f"chi2/dof {ratio:.3f} < 1.5, sup-norm {cmp_.sup_norm_density_gap:.4f} < 0.05")


def test_criterion_03_monomial_oracle():
    expected = {
        (4, 0, 0, 0): Fraction(24, 840),
        (2, 2, 0, 0): Fraction(4, 840),
        (3, 1, 0, 0): Fraction(6, 840),
        (2, 1, 1, 0): Fraction(2, 840),
        (1, 1, 1, 1): Fraction(1, 840),
    }
    for k, want in expected.items():
        assert monomial_integral_exact(k, 4) == want
    report(3, "all five quartic sphere integrals exact at n=4")


def test_criterion_04_second_moment_vs_mc():
    rng = np.random.default_rng(40_2026)
    hits = 0
    total = 0
    for n in (2, 3, 4, 5):
        for i in range(20):
            m = random_unit_disc_matrix(rng, n)
            closed = fourth_moment_general(m)
            est = mc_moment(m, 2, 100_000, seed=9000 + 100 * n + i)
            total += 1
            if abs(est.mean - closed) <= 4 * max(est.std_error, 1e-300):
                hits += 1
    assert hits >= 0.95 * total
    report(4, f"{hits}/{total} matrices within 4 standard errors")


def test_criterion_05_hermitian_collapse():
    rng = np.random.default_rng(50_2026)
    worst = 0.0
    for make, phase in ((random_hermitian, 1), (random_antihermitian, 1j)):
        for i in range(50):
            s = make(rng, 2 + i % 4)
            a = fourth_by_eigenvalues(np.linalg.eigvalsh(s / phase))
            b = fourth_moment_general(s)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    assert worst <= 1e-12
    report(5, f"max relative gap {worst:.3g} over 50+50 matrices")


def test_criterion_06_distribution_moment_consistency():
    rng = np.random.default_rng(60_2026)
    worst_moment = 0.0
    worst_mass = 0.0
    count = 0
    while count < 50:
        z = rng.uniform(-1, 1, 4)
        l0, l1 = complex(z[0], z[1]), complex(z[2], z[3])
        if max(abs(l0), abs(l1)) > 1.0 or abs(l0 - l1) < 0.05:
            continue
        count += 1
        s = QubitSpectrum.ordered(l0, l1)
        dist = normal_pdf(s)
        rep = quadrature_moments(dist)
        m = np.diag([s.lambda0, s.lambda1])
        worst_moment = max(
            worst_moment,
            abs(rep.mean - avg_fidelity(m)),
            abs(rep.second_moment - fourth_moment_general(m)),
        )
        worst_mass = max(worst_mass, _pdf_cdf_gap(dist))
    assert worst_moment <= 1e-9
    assert worst_mass <= 1e-10
    report(6, f"moment gap {worst_moment:.3g} <= 1e-9, mass gap {worst_mass:.3g} <= 1e-10")


def test_criterion_07_variance_worked_value():
    rep = variance(np.diag([1.0, 0.0]))
    assert abs(rep.mean - 1 / 3) <= 1e-12
    assert abs(rep.second_moment - 1 / 5) <= 1e-12
    assert abs(rep.variance - 4 / 45) <= 1e-12
    report(7, "projector map gives <f>=1/3, <f^2>=1/5, var=4/45")


def _leaky_gate(alpha):
    s = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    u = np.eye(3, dtype=np.complex128)
    u[1, 1] = alpha
    u[1, 2] = s
    u[2, 1] = -s
    u[2, 2] = np.conjugate(alpha)
    return GateSpec(target=np.eye(3), actual=u, subspace=(0, 1))


def test_criterion_08_conditional_fidelity():
    worst_z = 0.0
    for i, (alpha, want) in enumerate(((0.0, 2 / 3), (0.5, 14 / 15), (1.0, 1.0))):
        g = _leaky_gate(alpha)
        got = conditional_fidelity(g)
        assert abs(got - want) <= 1e-12
        (sums,) = sampling._lanes([_conditional_job([g], 100_000, seed=80_2026 + i)])
        est, se = _ratio_estimate(sums)
        worst_z = max(worst_z, abs(est - got) / max(se, 1e-300))
    assert worst_z <= 4.0
    report(8, f"closed form exact, MC oracle max |z| {worst_z:.2f} <= 4")


def test_criterion_09_kraus_depolarizing():
    for p, want in ((0.0, 1.0), (0.2, 0.9), (1.0, 0.5)):
        got = kraus_avg_fidelity(depolarizing_kraus(p), np.eye(2))
        assert abs(got - want) <= 1e-12
        assert abs(got - (1 - p / 2)) <= 1e-12
    # MC oracle: state-averaged channel fidelity, summed over Kraus terms.
    k = depolarizing_kraus(0.2)
    states = haar_states(2, 100_000, seed=90_2026)
    vals = np.zeros(len(states))
    for g in k.operators:
        vals += np.abs(np.einsum("bi,ij,bj->b", states.conj(), g, states)) ** 2
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    # The summed Kraus fidelity is constant over pure states, so the MC
    # spread collapses to rounding; keep a float-noise floor under 4 sigma.
    assert abs(vals.mean() - 0.9) <= 4 * se + 1e-12
    report(9, "depolarizing averages are 1 - p/2, confirmed by MC")


def _load_problem(name):
    obj = json.loads((PROBLEMS / name).read_text())
    fam = build_family(
        obj["family"], matrix_from_obj(obj["target"]), subspace=obj.get("subspace")
    )
    objective = Objective(obj["objective"]["kind"], obj["objective"].get("k", 0.0))
    config = OptimizeConfig(
        start=tuple(obj["start"]),
        box=tuple((lo, hi) for lo, hi in obj["box"]),
        f_tol=obj.get("f_tol", 1e-10),
    )
    return fam, objective, config


def test_criterion_10_optimizer():
    fam, objective, config = _load_problem("phase_gate.json")
    assert config.start == (2.0,)
    res = optimize(fam, objective, config)
    assert abs(res.best_value - 1.0) <= 1e-10
    details = [f"phase best {res.best_value:.12f}"]
    for name in ("two_phase_gate.json", "polar_eig_gate.json"):
        fam, objective, config = _load_problem(name)
        res = optimize(fam, objective, config)
        axes = [np.linspace(lo, hi, 200) for lo, hi in config.box]
        grid_best = max(
            evaluate_objective(fam, objective, point)
            for point in itertools.product(*axes)
        )
        assert res.best_value >= grid_best - config.f_tol
        details.append(f"{name.split('.')[0]} beats its 200^2 grid")
    report(10, "; ".join(details))
