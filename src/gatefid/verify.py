"""Cross-module consistency checks, runnable from the CLI.

The quick level re-derives closed-form results from independent routes
(exact sphere integrals, worked rational values, the fourth moment of
Hermitian maps from their eigenvalues, density-vs-trace moments) in a few
seconds. The full level adds Monte-Carlo agreement at larger sample counts,
including the reference two-piece histogram regeneration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from . import moments, qubit_dist, sampling
from .linalg import QubitSpectrum, adjoint
from .moments import GateSpec
from .optimize import _leaky_map

QUICK_SEED = 20260810
_RATIO_BATCHES = 50  # of the Monte-Carlo conditional fidelity
_MIN_SEP = 0.05  # between the eigenvalues of a random qubit spectrum
_FALSE_ALARM = 1e-3  # of histogram_regeneration on correct code


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_spectrum() -> QubitSpectrum:
    """The worked two-piece example shipped with the package."""
    return QubitSpectrum.ordered(
        0.7 * np.exp(1j * np.pi / 8), 0.8 * np.exp(1j * 4 * np.pi / 5)
    )


def reference_matrix() -> np.ndarray:
    s = reference_spectrum()
    return np.diag([s.lambda0, s.lambda1]).astype(np.complex128)


def _random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def _random_spectrum(rng: np.random.Generator) -> QubitSpectrum:
    while True:
        z = rng.uniform(-1, 1, 4)
        l0, l1 = complex(z[0], z[1]), complex(z[2], z[3])
        if max(abs(l0), abs(l1)) <= 1.0 and abs(l0 - l1) >= _MIN_SEP:
            return QubitSpectrum.ordered(l0, l1)


def check_monomial_patterns() -> CheckResult:
    pattern_weights = {(4,): 24, (2, 2): 4, (3, 1): 6, (2, 1, 1): 2, (1, 1, 1, 1): 1}
    worst = 0.0
    ok = True
    for n in (4, 6):
        denom = n * (n + 1) * (n + 2) * (n + 3)
        for pattern, weight in pattern_weights.items():
            k = pattern + (0,) * (n - len(pattern))
            exact = sampling.monomial_integral_exact(k, n)
            if exact != Fraction(weight, denom):
                ok = False
            worst = max(worst, abs(float(exact) - weight / denom))
    return CheckResult("monomial_patterns", ok, f"max float gap {worst:.3g}")


def check_monomial_completeness() -> CheckResult:
    ok = True
    for n in range(2, 7):
        total = Fraction(0)
        for i in range(n):
            k = [0] * n
            k[i] = 2
            total += sampling.monomial_integral_exact(k, n)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                k = [0] * n
                k[i] = k[j] = 1
                total += sampling.monomial_integral_exact(k, n)
        ok = ok and total == 1
    return CheckResult("monomial_completeness", ok, "sum over (sum|c|^2)^2 expansion")


def _quartic_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows k with |k| = 4 over n coordinates, and their weights
    (4! / prod k_i!) E prod |c_i|^(2 k_i) over Haar states c."""
    ks = [k for k in itertools.product(range(5), repeat=n) if sum(k) == 4]
    weights = [
        float(sampling.monomial_integral_exact(k, n) * 24 / math.prod(map(math.factorial, k)))
        for k in ks
    ]
    return np.array(ks), np.array(weights)


def check_hermitian_collapse(seed: int) -> CheckResult:
    """``fourth_moment_general`` on Hermitian maps against their eigenvalues.

    In the eigenbasis of a Hermitian s, <psi|s|psi> = sum_i lambda_i |c_i|^2,
    so E f^2 = E <psi|s|psi>^4 is the multinomial expansion of that sum,
    weighted by the exact sphere monomials.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3, 4, 5):
        ks, weights = _quartic_table(n)
        for _ in range(10):
            raw = _random_matrix(rng, n)
            for part in ((raw + adjoint(raw)) / 2, (raw - adjoint(raw)) / 2j):
                a = float(np.prod(np.linalg.eigvalsh(part) ** ks, axis=1) @ weights)
                b = moments.fourth_moment_general(part)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return CheckResult("hermitian_collapse", worst <= 1e-12, f"max rel gap {worst:.3g}")


def check_distribution_moments(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_moment = 0.0
    worst_mass = 0.0
    for _ in range(50):
        s = _random_spectrum(rng)
        dist = qubit_dist.normal_pdf(s)
        rep = qubit_dist.quadrature_moments(dist)
        m = np.diag([s.lambda0, s.lambda1]).astype(np.complex128)
        worst_moment = max(
            worst_moment,
            abs(rep.mean - moments.avg_fidelity(m)),
            abs(rep.second_moment - moments.fourth_moment_general(m)),
        )
        worst_mass = max(worst_mass, _pdf_cdf_gap(dist))
    ok = worst_moment <= 1e-9 and worst_mass <= 1e-10
    return CheckResult(
        "distribution_moments",
        ok,
        f"max moment gap {worst_moment:.3g}, max pdf-cdf mass gap {worst_mass:.3g}",
    )


def _pdf_cdf_gap(dist: qubit_dist.FidelityDistribution) -> float:
    """Largest gap between the pdf's mass and the cdf's on steps of the support.

    In t = sqrt(f - f0) the mass pdf(f) df = pdf(f0 + t^2) 2t dt has no
    1/sqrt(f - f0) singularity, and it is constant on each piece of the law
    (split at |l0|^2), so the midpoint rule is exact on eight steps in t per
    piece: their masses must match the cdf differences and add up to 1.
    """
    lo, hi = dist.support()
    ends = [lo, dist.f_l0, hi] if lo < dist.f_l0 < hi else [lo, hi]
    t_ends = np.sqrt(np.maximum(np.subtract(ends, dist.f0), 0.0))
    steps = [np.linspace(a, b, 8, endpoint=False) for a, b in zip(t_ends, t_ends[1:])]
    t = np.concatenate(steps + [t_ends[-1:]])
    f = dist.f0 + t * t
    f[::8] = ends  # the piece ends exactly, not through t
    mid = 0.5 * (t[1:] + t[:-1])
    masses = dist.pdf(dist.f0 + mid * mid) * 2.0 * mid * np.diff(t)
    return max(float(np.abs(masses - np.diff(dist.cdf(f))).max()), abs(float(masses.sum()) - 1.0))


def check_worked_values() -> CheckResult:
    gaps = []
    m = np.diag([1.0, 0.0]).astype(np.complex128)
    rep = moments.variance(m)
    gaps += [abs(rep.mean - 1 / 3), abs(rep.second_moment - 1 / 5), abs(rep.variance - 4 / 45)]
    for alpha, expected in ((0.0, 2 / 3), (0.5, 14 / 15), (1.0, 1.0)):
        gaps.append(abs(moments.conditional_fidelity(_leaky_gate(alpha)) - expected))
    for p in (0.0, 0.2, 1.0):
        got = moments.kraus_avg_fidelity(moments.depolarizing_kraus(p), np.eye(2))
        gaps.append(abs(got - (1 - p / 2)))
    worst = max(gaps)
    return CheckResult("worked_values", worst <= 1e-12, f"max gap {worst:.3g}")


def _leaky_gate(alpha: float) -> GateSpec:
    return GateSpec(target=np.eye(3), actual=_leaky_map((alpha, 0.0)), subspace=(0, 1))


def check_mc_closed_form(seed: int, samples: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    closed, streams = [], []
    cases = [reference_matrix()] + [_random_matrix(rng, n) / n for n in (2, 3, 4)]
    for i, m in enumerate(cases):
        for order, value in (
            (1, moments.avg_fidelity(m)),
            (2, moments.fourth_moment_general(m)),
        ):
            closed.append(value)
            streams.append((m, order, samples, seed + 17 * i + order))
    worst = 0.0
    for value, est in zip(closed, sampling._mc_moments(streams)):
        worst = max(worst, abs(est.mean - value) / max(est.std_error, 1e-300))
    return CheckResult("mc_closed_form", worst <= 4.0, f"max |z| = {worst:.2f} sigma")


def check_histogram_regeneration(seed: int, samples: int, bins: int) -> CheckResult:
    """Two tests with half of ``_FALSE_ALARM`` each: chi2/dof under its upper
    quantile (Wilson-Hilferty), and |count - expected| <= z sqrt(expected) in
    every compared bin, z two-sided and Bonferroni over the bins."""
    dist = qubit_dist.normal_pdf(reference_spectrum())
    hist, _ = sampling.mc_sample(reference_matrix(), bins, samples, seed)
    cmp = qubit_dist.compare_histogram(dist, hist)
    alpha, h = _FALSE_ALARM / 2, 2 / (9 * cmp.dof)
    z = NormalDist().inv_cdf(1 - alpha / (2 * cmp.bins_compared))
    ratio_max = (1 - h + NormalDist().inv_cdf(1 - alpha) * math.sqrt(h)) ** 3
    ratio = cmp.chi_square / cmp.dof
    ok = ratio < ratio_max and cmp.max_pull <= z
    return CheckResult(
        "histogram_regeneration",
        ok,
        f"chi2/dof {ratio:.3f} (bound {ratio_max:.3f}), max bin pull {cmp.max_pull:.2f} (bound {z:.2f})",
    )


def check_mc_batch(seed: int, samples: int, per_dim: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    closed, streams = [], []
    for n in (2, 3, 4, 5):
        for i in range(per_dim):
            m = _random_matrix(rng, n) / n
            closed.append(moments.fourth_moment_general(m))
            streams.append((m, 2, samples, seed + 101 * n + i))
    estimates = sampling._mc_moments(streams)
    hits = sum(abs(est.mean - c) <= 4.0 * max(est.std_error, 1e-300) for c, est in zip(closed, estimates))
    ok = hits >= 0.95 * len(streams)
    return CheckResult("mc_batch", ok, f"{hits}/{len(streams)} within 4 sigma")


def check_conditional_oracle(seed: int, samples: int) -> CheckResult:
    gates = [_leaky_gate(alpha) for alpha in (0.0, 0.5, 1.0)]
    closed = [moments.conditional_fidelity(g) for g in gates]
    per = samples // _RATIO_BATCHES
    jobs = [
        (_conditional_ops(g), per * _RATIO_BATCHES, seed + i, _ratio_sums, per)
        for i, g in enumerate(gates)
    ]
    worst = 0.0
    for value, sums in zip(closed, sampling._lanes(jobs)):
        est, se = _ratio_estimate(sums)
        worst = max(worst, abs(est - value) / max(se, 1e-300))
    return CheckResult("conditional_oracle", worst <= 4.0, f"max |z| = {worst:.2f} sigma")


def _mc_conditional(g: GateSpec, samples: int, seed: int) -> tuple[float, float]:
    """Acceptance-weighted Monte-Carlo conditional fidelity over the subspace.

    Returns a batched ratio estimate with its standard error: the stream's
    rows are cut into ``_RATIO_BATCHES`` runs of ``samples // _RATIO_BATCHES``
    consecutive rows (whole runs only), and each run gives the ratio of its
    mean fidelity to its mean acceptance.
    """
    per = samples // _RATIO_BATCHES
    overlaps = sampling._overlaps(_conditional_ops(g), per * _RATIO_BATCHES, seed)
    return _ratio_estimate(_ratio_sums(overlaps, per))


def _conditional_ops(g: GateSpec) -> np.ndarray:
    """The fidelity and acceptance operators of ``g`` over its subspace; the
    acceptance one is positive semidefinite, so the modulus of its overlap
    is the acceptance."""
    return np.stack(
        [
            moments.comparison_matrix(g.target, g.actual, g.subspace),
            moments.comparison_matrix(g.actual, g.actual, g.subspace),
        ]
    )


def _ratio_sums(overlaps, per: int) -> np.ndarray:
    """Sums of f and of the acceptance over each run of ``per`` rows of the
    conditional operators' overlaps: a (2, ``_RATIO_BATCHES``) array."""
    sums = np.zeros((2, _RATIO_BATCHES))
    row = 0
    for q_num, q_den in overlaps:
        run = (row + np.arange(len(q_num))) // per
        sums[0] += np.bincount(run, weights=q_num**2, minlength=_RATIO_BATCHES)
        sums[1] += np.bincount(run, weights=q_den, minlength=_RATIO_BATCHES)
        row += len(q_num)
    return sums


def _ratio_estimate(sums: np.ndarray) -> tuple[float, float]:
    ratios = sums[0] / sums[1]
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(_RATIO_BATCHES))


def _sa_decomposition(m: np.ndarray, samples: int, seed: int) -> tuple[np.ndarray, float]:
    """Split <f^2> by |<m>|^4 = |<S>|^4 + |<A>|^4 + 2|<S>|^2|<A>|^2 on one stream.

    S and A are the Hermitian and anti-Hermitian parts of ``m``. Returns the
    sample means of the total, S, A and cross terms, in that order, and the
    largest per-sample gap of the identity, which holds up to rounding since
    all four terms use the same states.
    """
    sym = (m + adjoint(m)) / 2.0
    anti = (m - adjoint(m)) / 2.0
    totals = np.zeros(4)
    gap = 0.0
    for q_m, q_s, q_a in sampling._overlaps([m, sym, anti], samples, seed):
        f = np.stack([q_m**4, q_s**4, q_a**4, (q_s**2) * (q_a**2)])
        totals += f.sum(axis=1)
        gap = max(gap, float(np.abs(f[0] - (f[1] + f[2] + 2 * f[3])).max()))
    return totals / samples, gap


def check_sa_decomposition(seed: int, samples: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    m = _random_matrix(rng, 3)
    (total, herm, anti, cross), gap = _sa_decomposition(m, samples, seed)
    recombined = herm + anti + 2 * cross
    ok = gap <= 1e-12 * max(1.0, total) and (
        abs(recombined - total) <= 1e-12 * max(1.0, total)
    )
    return CheckResult("sa_decomposition", ok, f"max pointwise gap {gap:.3g}")


def _guarded(check, *args, **kwargs) -> CheckResult:
    """Run one check; a ``ValueError`` it raises (a broken invariant, a bad
    setting, a sampled f outside its histogram range) fails it, and only it."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        return CheckResult(check.__name__.removeprefix("check_"), False, str(exc))


def run_checks(level: str = "quick", seed: int = QUICK_SEED) -> dict:
    """Run the named check suite; returns a JSON-ready report."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    checks = [
        _guarded(check_monomial_patterns),
        _guarded(check_monomial_completeness),
        _guarded(check_hermitian_collapse, seed),
        _guarded(check_distribution_moments, seed + 1),
        _guarded(check_worked_values),
        _guarded(check_mc_closed_form, seed + 2, samples=20_000),
    ]
    if level == "full":
        checks += [
            _guarded(check_histogram_regeneration, seed + 3, samples=1_000_000, bins=50),
            _guarded(check_mc_batch, seed + 4, samples=100_000, per_dim=5),
            _guarded(check_conditional_oracle, seed + 5, samples=100_000),
            _guarded(check_sa_decomposition, seed + 6, samples=100_000),
        ]
    return {
        "level": level,
        "seed": seed,
        "passed": bool(all(c.passed for c in checks)),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in checks
        ],
    }
