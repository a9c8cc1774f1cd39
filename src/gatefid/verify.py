"""Cross-module consistency checks, runnable from the CLI.

The quick level re-derives closed-form results from independent routes
(exact sphere integrals, worked rational values, the fourth moment of
Hermitian maps from their eigenvalues, density-vs-trace moments) in a few
seconds. The full level adds Monte-Carlo agreement at larger sample counts,
including the reference two-piece histogram regeneration.

Each Monte-Carlo check is a plan, its stream jobs and closed forms, and a
judge of the jobs' results. :func:`run_checks` is the one runner: it runs
every job of its level in one longest-first schedule of ``sampling._lanes``
and judges each check on its own results. A ``ValueError`` from a plan, a
job or a judge fails only its check (:func:`_guarded`); any other error
escapes.

A check draws one seeded stream of states per dimension, and every map of
the check in that dimension is evaluated on it (common random numbers):
``mc_closed_form`` draws 3 streams, ``mc_batch`` 4, and the other three
Monte-Carlo checks one each, every one with a seed of its own within a
level. The estimates of one stream are then not independent, but no bound
below needs them to be. Each check's false-alarm rate on correct code, with
P(|Z| > 4) = 6.3e-5 for an estimate's z under the normal approximation:

- ``mc_closed_form``: max |z| <= 4 over 8 estimates; at most 8 x 6.3e-5 =
  5.1e-4 by the union bound.
- ``mc_batch``: at most one miss of 20 estimates at |z| > 4. The expected
  number of misses is 20 x 6.3e-5, so two or more have a rate of at most
  half that, 6.3e-4, by Markov's inequality.
- ``conditional_oracle``: max |z| <= 4 over 3 gates; at most 1.9e-4.
- ``histogram_regeneration``: 1e-3, split between its two tests.
- ``sa_decomposition``: 0; it splits E f of a map into E f of its
  Hermitian and anti-Hermitian parts, an identity up to rounding.

An estimate whose standard error is exactly 0 (the perfect gate of
``conditional_oracle``) must equal its closed form to 1e-12 relative
(:func:`_z`). Each check takes its worst gap or z with :func:`_worst`, which
keeps a NaN, so a closed form that returns NaN fails every check that calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from statistics import NormalDist

import numpy as np

from . import moments, qubit_dist, sampling
from .linalg import ConfigError, QubitSpectrum, adjoint
from .moments import GateSpec
from .optimize import _leaky_map

QUICK_SEED = 20260810
_RATIO_BATCHES = 50  # of the Monte-Carlo conditional fidelity
_MIN_SEP = 0.05  # between the eigenvalues of a random qubit spectrum
_FALSE_ALARM = 1e-3  # of histogram_regeneration on correct code
_Z_MAX = 4.0  # the largest |z| a Monte-Carlo estimate may show
_EXACT = 1e-12  # relative: how close an estimate with no spread must be


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


def _worst(gaps) -> float:
    """The largest of the non-negative ``gaps`` (0 for none), or NaN if any
    is NaN, so that a NaN gap fails its check: ``max`` keeps a number over a
    NaN that follows it."""
    return float(np.max(np.fromiter(gaps, float), initial=0.0))


def check_monomial_patterns() -> CheckResult:
    pattern_weights = {(4,): 24, (2, 2): 4, (3, 1): 6, (2, 1, 1): 2, (1, 1, 1, 1): 1}
    gaps = []
    ok = True
    for n in (4, 6):
        denom = n * (n + 1) * (n + 2) * (n + 3)
        for pattern, weight in pattern_weights.items():
            k = pattern + (0,) * (n - len(pattern))
            exact = sampling.monomial_integral_exact(k, n)
            if exact != Fraction(weight, denom):
                ok = False
            gaps.append(abs(float(exact) - weight / denom))
    return CheckResult("monomial_patterns", ok, f"max float gap {_worst(gaps):.3g}")


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


@cache
def _quartic_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows k with |k| = 4 over n coordinates, and their weights
    (4! / prod k_i!) E prod |c_i|^(2 k_i) over Haar states c; built once per
    n, as read-only arrays."""
    ks = [k for k in itertools.product(range(5), repeat=n) if sum(k) == 4]
    weights = [
        float(sampling.monomial_integral_exact(k, n) * 24 / math.prod(map(math.factorial, k)))
        for k in ks
    ]
    ks, weights = np.array(ks), np.array(weights)
    ks.flags.writeable = weights.flags.writeable = False
    return ks, weights


def check_hermitian_collapse(seed: int) -> CheckResult:
    """``fourth_moment_general`` on Hermitian maps against their eigenvalues.

    In the eigenbasis of a Hermitian s, <psi|s|psi> = sum_i lambda_i |c_i|^2,
    so E f^2 = E <psi|s|psi>^4 is the multinomial expansion of that sum,
    weighted by the exact sphere monomials.
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for n in (2, 3, 4, 5):
        ks, weights = _quartic_table(n)
        for _ in range(10):
            raw = _random_matrix(rng, n)
            for part in ((raw + adjoint(raw)) / 2, (raw - adjoint(raw)) / 2j):
                a = float(np.prod(np.linalg.eigvalsh(part) ** ks, axis=1) @ weights)
                b = moments.fourth_moment_general(part)
                gaps.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
    worst = _worst(gaps)
    return CheckResult("hermitian_collapse", worst <= 1e-12, f"max rel gap {worst:.3g}")


def check_distribution_moments(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    moment_gaps, mass_gaps = [], []
    for _ in range(50):
        s = _random_spectrum(rng)
        dist = qubit_dist.normal_pdf(s)
        rep = qubit_dist.quadrature_moments(dist)
        m = np.diag([s.lambda0, s.lambda1]).astype(np.complex128)
        moment_gaps += [
            abs(rep.mean - moments.avg_fidelity(m)),
            abs(rep.second_moment - moments.fourth_moment_general(m)),
        ]
        mass_gaps.append(_pdf_cdf_gap(dist))
    worst_moment, worst_mass = _worst(moment_gaps), _worst(mass_gaps)
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
    return _worst([float(np.abs(masses - np.diff(dist.cdf(f))).max()), abs(float(masses.sum()) - 1.0)])


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
    worst = _worst(gaps)
    return CheckResult("worked_values", worst <= 1e-12, f"max gap {worst:.3g}")


def _leaky_gate(alpha: float) -> GateSpec:
    return GateSpec(target=np.eye(3), actual=_leaky_map((alpha, 0.0)), subspace=(0, 1))


def _z(estimate: float, std_error: float, value: float) -> float:
    """|estimate - value| in standard errors. Where the standard error is 0
    (every draw gave one value, as for a perfect gate) the estimate is exact,
    so it must equal the closed form to ``_EXACT`` relative: the gap is then
    taken in units of ``_EXACT / _Z_MAX`` of the larger, and z is finite."""
    gap = abs(estimate - value)
    if std_error > 0:
        return gap / std_error
    if gap == 0:
        return 0.0
    return gap / (_EXACT / _Z_MAX * max(abs(estimate), abs(value)))


def _estimates(jobs, tallies) -> list:
    """The estimates of the tallies of shared moment jobs, job by job, each
    under its job's seed."""
    return [t.estimate(seed) for (_, _, seed, *_), job_tallies in zip(jobs, tallies) for t in job_tallies]


def _plan_mc_closed_form(seed: int, samples: int):
    rng = np.random.default_rng(seed)
    closed, jobs = [], []
    # One stream per dimension: the reference and the random 2x2 map share one.
    by_dim = {}
    for m in [reference_matrix()] + [_random_matrix(rng, n) / n for n in (2, 3, 4)]:
        by_dim.setdefault(len(m), []).append(m)
    for n, maps in by_dim.items():
        for m in maps:
            closed += [moments.avg_fidelity(m), moments.fourth_moment_general(m)]
        jobs.append(sampling._moment_job(maps, (1, 2), samples, seed + 17 * n))

    def judge(*tallies) -> CheckResult:
        estimates = _estimates(jobs, tallies)
        worst = _worst(_z(est.mean, est.std_error, value) for value, est in zip(closed, estimates))
        return CheckResult("mc_closed_form", worst <= _Z_MAX, f"max |z| = {worst:.2f} sigma")

    return jobs, judge


def _plan_histogram_regeneration(seed: int, samples: int, bins: int):
    """Two tests with half of ``_FALSE_ALARM`` each: chi2/dof under its upper
    quantile (Wilson-Hilferty), and |count - expected| <= z sqrt(expected) in
    every compared bin, z two-sided and Bonferroni over the bins."""
    dist = qubit_dist.normal_pdf(reference_spectrum())
    job = sampling._sample_job(reference_matrix(), bins, samples, seed)

    def judge(tallies) -> CheckResult:
        cmp = qubit_dist.compare_histogram(dist, tallies[0].histogram(seed))
        alpha, h = _FALSE_ALARM / 2, 2 / (9 * cmp.dof)
        z = NormalDist().inv_cdf(1 - alpha / (2 * cmp.bins_compared))
        ratio_max = (1 - h + NormalDist().inv_cdf(1 - alpha) * math.sqrt(h)) ** 3
        ratio = cmp.chi_square / cmp.dof
        ok = ratio < ratio_max and cmp.max_pull <= z
        detail = f"chi2/dof {ratio:.3f} (bound {ratio_max:.3f}), max bin pull {cmp.max_pull:.2f} (bound {z:.2f})"
        return CheckResult("histogram_regeneration", ok, detail)

    return [job], judge


def _plan_mc_batch(seed: int, samples: int, per_dim: int):
    rng = np.random.default_rng(seed)
    closed, jobs = [], []
    for n in (2, 3, 4, 5):
        maps = [_random_matrix(rng, n) / n for _ in range(per_dim)]
        closed += [moments.fourth_moment_general(m) for m in maps]
        jobs.append(sampling._moment_job(maps, (2,), samples, seed + 101 * n))

    def judge(*tallies) -> CheckResult:
        zs = [_z(est.mean, est.std_error, c) for c, est in zip(closed, _estimates(jobs, tallies))]
        hits = sum(z <= _Z_MAX for z in zs)
        ok = hits >= 0.95 * len(zs) and not math.isnan(_worst(zs))  # a NaN z is a fault, not a miss
        return CheckResult("mc_batch", ok, f"{hits}/{len(zs)} within 4 sigma")

    return jobs, judge


def _plan_conditional_oracle(seed: int, samples: int):
    gates = [_leaky_gate(alpha) for alpha in (0.0, 0.5, 1.0)]
    closed = [moments.conditional_fidelity(g) for g in gates]

    def judge(sums) -> CheckResult:
        estimates = [_ratio_estimate(sums[2 * i : 2 * i + 2]) for i in range(len(closed))]
        worst = _worst(_z(est, se, value) for (est, se), value in zip(estimates, closed))
        return CheckResult("conditional_oracle", worst <= _Z_MAX, f"max |z| = {worst:.2f} sigma")

    return [_conditional_job(gates, samples, seed)], judge


def _conditional_job(gates, samples: int, seed: int) -> tuple:
    """The stream job of the acceptance-weighted Monte-Carlo conditional
    fidelity of each gate of ``gates``, a list of gate specs over subspaces
    of one dimension, on one stream: ``_RATIO_BATCHES`` runs
    of ``samples // _RATIO_BATCHES`` consecutive rows (whole runs only),
    each giving the ratio of its mean fidelity to its mean acceptance."""
    per = samples // _RATIO_BATCHES
    ops = np.concatenate([_conditional_ops(g) for g in gates])
    return (ops, per * _RATIO_BATCHES, seed, _ratio_sums, per)


def _conditional_ops(g: GateSpec) -> np.ndarray:
    """The fidelity and acceptance operators of ``g`` over its subspace; the
    acceptance one is positive semidefinite, so the modulus of its overlap
    is the acceptance."""
    return np.stack([moments.comparison_matrix(a, g.actual, g.subspace) for a in (g.target, g.actual)])


def _ratio_sums(overlaps, per: int) -> np.ndarray:
    """Sums over each run of ``per`` rows of the conditional operators'
    overlaps, f of each fidelity operator and the acceptance of each
    acceptance one: a (2 * gates, ``_RATIO_BATCHES``) array whose rows
    2i and 2i + 1 are gate i's, the same bits as on a stream of its own."""
    sums = None
    row = 0
    for q in overlaps:
        if sums is None:
            sums = np.zeros((len(q), _RATIO_BATCHES))
        run = (row + np.arange(q.shape[1])) // per
        for i in range(0, len(q), 2):
            sums[i] += np.bincount(run, weights=q[i] ** 2, minlength=_RATIO_BATCHES)
            sums[i + 1] += np.bincount(run, weights=q[i + 1], minlength=_RATIO_BATCHES)
        row += q.shape[1]
    return sums


def _ratio_estimate(sums: np.ndarray) -> tuple[float, float]:
    """The batched ratio estimate of one gate's rows of :func:`_ratio_sums`
    and its standard error."""
    ratios = sums[0] / sums[1]
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(_RATIO_BATCHES))


def _plan_sa_decomposition(seed: int, samples: int):
    """E f of a random m against E f of its Hermitian and anti-Hermitian
    parts S and A on one stream: <S> is real and <A> imaginary, so
    f = |<S>|^2 + |<A>|^2 on every state, and the means add up to rounding."""
    rng = np.random.default_rng(seed)
    m = _random_matrix(rng, 3)
    job = sampling._moment_job([m, (m + adjoint(m)) / 2.0, (m - adjoint(m)) / 2.0], (1,), samples, seed)

    def judge(tallies) -> CheckResult:
        total, herm, anti = (t.estimate(seed).mean for t in tallies)
        gap = abs(total - (herm + anti))
        return CheckResult("sa_decomposition", gap <= 1e-12 * max(1.0, total), f"mean gap {gap:.3g}")

    return [job], judge


def _guarded(name: str, step, *args):
    """``step(*args)`` for the check ``name``: a whole check, a plan, or a
    judge given its jobs' results. A ``ValueError`` (a broken invariant, a
    bad setting, a sampled f outside its histogram range) fails that check,
    and only it, with the error's text: the first one that
    ``sampling._lanes`` returned among the results, or one ``step`` raises."""
    error = next((arg for arg in args if isinstance(arg, ValueError)), None)
    if error is None:
        try:
            return step(*args)
        except ValueError as exc:
            error = exc
    return CheckResult(name, False, str(error))


def run_checks(level: str = "quick", seed: int = QUICK_SEED) -> dict:
    """Run the named check suite; returns a JSON-ready report."""
    if level not in ("quick", "full"):
        raise ConfigError("level must be 'quick' or 'full'")
    if seed < 0:  # before any check runs, so no check fails on the seed alone
        raise ConfigError(f"seed must be at least 0, got {seed}")
    checks = [
        _guarded("monomial_patterns", check_monomial_patterns),
        _guarded("monomial_completeness", check_monomial_completeness),
        _guarded("hermitian_collapse", check_hermitian_collapse, seed),
        _guarded("distribution_moments", check_distribution_moments, seed + 1),
        _guarded("worked_values", check_worked_values),
    ]
    sampled = [("mc_closed_form", _plan_mc_closed_form, seed + 2, 20_000)]
    if level == "full":
        sampled += [
            ("histogram_regeneration", _plan_histogram_regeneration, seed + 3, 1_000_000, 50),
            ("mc_batch", _plan_mc_batch, seed + 4, 100_000, 5),
            ("conditional_oracle", _plan_conditional_oracle, seed + 5, 100_000),
            ("sa_decomposition", _plan_sa_decomposition, seed + 6, 100_000),
        ]
    # Every Monte-Carlo job of the level runs in one lane schedule, longest
    # first; each check is judged on its own slice of the results. A plan
    # that raised is its check's failed result, with no jobs.
    plans = [_guarded(name, plan, *args) for name, plan, *args in sampled]
    staged = [plan for plan in plans if not isinstance(plan, CheckResult)]
    results = iter(sampling._lanes([job for jobs, _ in staged for job in jobs]))
    for (name, *_), plan in zip(sampled, plans):
        if not isinstance(plan, CheckResult):
            jobs, judge = plan
            plan = _guarded(name, judge, *[next(results) for _ in jobs])
        checks.append(plan)
    return {
        "level": level,
        "seed": seed,
        "passed": bool(all(c.passed for c in checks)),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in checks
        ],
    }
