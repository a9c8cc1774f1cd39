"""Cross-module consistency checks, runnable from the CLI.

The quick level re-derives closed-form results from independent routes
(exact sphere integrals, worked rational values, the fourth moment of
Hermitian maps from their eigenvalues, density-vs-trace moments) in a few
seconds. The full level adds Monte-Carlo agreement at larger sample counts,
including the reference two-piece histogram regeneration.

:func:`run_checks` runs one ordered table of checks, ``_CHECKS``. Row k is
a plan of the key ``(seed, k)``: a deterministic check returns its result,
a Monte-Carlo check its stream jobs and a judge of their results. Every job
of a level runs in one ``sampling._lanes`` call. A ``ValueError`` from a
plan, a job or a judge fails only its check (:func:`_guarded`). Check k
draws its maps from ``default_rng((seed, k))`` and its stream in dimension
n from the seed ``(seed, k, n)``, so no two (seed, check, dimension) triples
share a stream or a map generator: runs at different seeds are independent.

A check evaluates all its maps of one dimension on one stream (common random
numbers), so its estimates are not independent, but no bound below needs
them to be. Each check's false-alarm rate on correct code, with
P(|Z| > 4) = 6.3e-5 for an estimate's z under the normal approximation:

- ``mc_closed_form``: max |z| <= 4 over 8 estimates; at most 8 x 6.3e-5 =
  5.1e-4 by the union bound.
- ``mc_batch``: at most one miss of 20 estimates at |z| > 4. The expected
  number of misses is 20 x 6.3e-5, so two or more have a rate of at most
  half that, 6.3e-4, by Markov's inequality.
- ``conditional_oracle``: max |z| <= 4 over 3 ratio estimates (:func:`_ratio`);
  the perfect gate (alpha = 1) is exact, so at most 2 x 6.3e-5 = 1.3e-4.
- ``histogram_regeneration``: 1e-3, split between its two tests.
- ``sa_decomposition``: 0; it splits E f of a map into E f of its
  Hermitian and anti-Hermitian parts, an identity up to rounding.

An estimate within 1e-12 relative of its closed form has z = 0 (:func:`_z`).
Each check takes its worst gap or z with :func:`_worst`, which keeps a NaN,
so a closed form that returns NaN fails every check that calls it. No check
reads ``moments.VARIANCE_CLAMP``: correct closed forms come out negative
only by rounding, far inside it, so only moments made inconsistent by hand
reach it, which is a unit test of ``MomentReport``, not an oracle.
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
def _quartic_exponents(n: int) -> np.ndarray:
    """The exponent rows k with |k| = 4 over n coordinates, built once per n
    as a read-only array. Over Haar states c, each row's multinomial weight
    (4! / prod k_i!) E prod |c_i|^(2 k_i) is the one constant
    24 / (n (n+1) (n+2) (n+3)) (a Dirichlet moment), so
    E (sum_i x_i |c_i|^2)^4 is that constant times sum_k prod_i x_i^k_i."""
    ks = np.array([k for k in itertools.product(range(5), repeat=n) if sum(k) == 4])
    ks.flags.writeable = False
    return ks


def check_hermitian_collapse(seed: int | tuple) -> CheckResult:
    """``fourth_moment_general`` on Hermitian maps against their eigenvalues.

    In the eigenbasis of a Hermitian s, <psi|s|psi> = sum_i lambda_i |c_i|^2,
    so E f^2 = E <psi|s|psi>^4 is the multinomial expansion of that sum
    over the sphere (:func:`_quartic_exponents`).
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for n in (2, 3, 4, 5):
        ks, weight = _quartic_exponents(n), 24 / math.prod(range(n, n + 4))
        for _ in range(10):
            raw = _random_matrix(rng, n)
            for part in ((raw + adjoint(raw)) / 2, (raw - adjoint(raw)) / 2j):
                a = float(np.prod(np.linalg.eigvalsh(part) ** ks, axis=1).sum()) * weight
                b = moments.fourth_moment_general(part)
                gaps.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
    worst = _worst(gaps)
    return CheckResult("hermitian_collapse", worst <= 1e-12, f"max rel gap {worst:.3g}")


def check_distribution_moments(seed: int | tuple) -> CheckResult:
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
    """|estimate - value| in standard errors, or 0 for a gap within
    ``_EXACT`` relative of the larger: such an estimate is exact, whatever
    its standard error (the perfect gate's is rounding). Where the standard
    error is 0 (every draw gave one value) a larger gap is taken in units of
    ``_EXACT / _Z_MAX`` of the larger, so z is finite and above ``_Z_MAX``."""
    gap = abs(estimate - value)
    scale = max(abs(estimate), abs(value))
    if gap <= _EXACT * scale:
        return 0.0
    if std_error > 0:
        return gap / std_error
    return gap / (_EXACT / _Z_MAX * scale)


def _z_judge(name: str, closed: list, estimates, misses: int = 0):
    """The judge of a check whose ``estimates(*results)`` estimate its
    ``closed`` forms: it passes with at most ``misses`` z above ``_Z_MAX``
    and no NaN z, a fault rather than a miss."""

    def judge(*results) -> CheckResult:
        zs = [_z(est.mean, est.std_error, value) for est, value in zip(estimates(*results), closed)]
        worst, hits = _worst(zs), sum(z <= _Z_MAX for z in zs)
        ok = len(zs) - hits <= misses and not math.isnan(worst)
        detail = f"{hits}/{len(zs)} within {_Z_MAX:g} sigma" if misses else f"max |z| = {worst:.2f} sigma"
        return CheckResult(name, ok, detail)

    return judge


def _shared_streams(key: tuple, maps: list, orders: tuple, samples: int):
    """One ``sampling._moment_job`` at ``orders`` per dimension n of a check's
    ``maps``, on the stream ``(*key, n)`` shared by the maps of that dimension,
    and a function of the jobs' results that gives the estimates in map order,
    each map's orders in turn."""
    dims = dict.fromkeys(len(m) for m in maps)  # in order of first appearance
    jobs = [sampling._moment_job([m for m in maps if len(m) == n], orders, samples, (*key, n)) for n in dims]
    owners = [i for n in dims for i, m in enumerate(maps) if len(m) == n for _ in orders]
    place = sorted(range(len(owners)), key=owners.__getitem__)  # stable: a map's orders stay in turn

    def estimates(*results) -> list:
        flat = [t.estimate((*key, n)) for n, tallies in zip(dims, results) for t in tallies]
        return [flat[j] for j in place]

    return jobs, estimates


def _plan_mc_closed_form(key: tuple, samples: int):
    rng = np.random.default_rng(key)
    # The reference and the random 2x2 map share one stream.
    maps = [reference_matrix()] + [_random_matrix(rng, n) / n for n in (2, 3, 4)]
    closed = [value for m in maps for value in (moments.avg_fidelity(m), moments.fourth_moment_general(m))]
    jobs, estimates = _shared_streams(key, maps, (1, 2), samples)
    return jobs, _z_judge("mc_closed_form", closed, estimates)


def _fit_bounds(cmp: sampling.HistogramComparison, false_alarm: float) -> tuple[float, float]:
    """The bounds of a histogram fit's two tests, with half of the rate
    ``false_alarm`` each on correct code: the upper quantile of chi2/dof
    (Wilson-Hilferty), and the largest z in |count - expected| <= z
    sqrt(expected) over the compared bins, two-sided and Bonferroni."""
    alpha, h = false_alarm / 2, 2 / (9 * cmp.dof)
    z = NormalDist().inv_cdf(1 - alpha / (2 * cmp.bins_compared))
    return (1 - h + NormalDist().inv_cdf(1 - alpha) * math.sqrt(h)) ** 3, z


def _plan_histogram_regeneration(key: tuple, samples: int, bins: int):
    """The two tests of :func:`_fit_bounds` at ``_FALSE_ALARM``."""
    dist = qubit_dist.normal_pdf(reference_spectrum())
    m = reference_matrix()
    seed = (*key, len(m))
    job = sampling._sample_job(m, bins, samples, seed)

    def judge(tallies) -> CheckResult:
        cmp = sampling.compare_histogram(dist, tallies[0].histogram(seed))
        ratio_max, z = _fit_bounds(cmp, _FALSE_ALARM)
        ratio = cmp.chi_square / cmp.dof
        ok = ratio < ratio_max and cmp.max_pull <= z
        detail = f"chi2/dof {ratio:.3f} (bound {ratio_max:.3f}), max bin pull {cmp.max_pull:.2f} (bound {z:.2f})"
        return CheckResult("histogram_regeneration", ok, detail)

    return [job], judge


def _plan_mc_batch(key: tuple, samples: int, per_dim: int):
    rng = np.random.default_rng(key)
    maps = [_random_matrix(rng, n) / n for n in (2, 3, 4, 5) for _ in range(per_dim)]
    closed = [moments.fourth_moment_general(m) for m in maps]
    jobs, estimates = _shared_streams(key, maps, (2,), samples)
    return jobs, _z_judge("mc_batch", closed, estimates, misses=1)


def _plan_conditional_oracle(key: tuple, samples: int):
    gates = [_leaky_gate(alpha) for alpha in (0.0, 0.5, 1.0)]
    closed = [moments.conditional_fidelity(g) for g in gates]
    seed = (*key, len(gates[0].subspace))
    job = _conditional_job(gates, samples, seed)

    def estimates(tallies) -> list:
        return [_ratio(tallies[i : i + 3], seed) for i in range(0, len(tallies), 3)]

    return [job], _z_judge("conditional_oracle", closed, estimates)


def _conditional_job(gates, samples: int, seed: int | tuple) -> tuple:
    """The stream job of the acceptance-weighted Monte-Carlo conditional
    fidelity of each gate of ``gates``, a list of gate specs over subspaces
    of one dimension, on one stream."""
    ops = np.concatenate([_conditional_ops(g) for g in gates])
    return (ops, samples, seed, _ratio_tallies)


def _conditional_ops(g: GateSpec) -> np.ndarray:
    """The fidelity and acceptance operators of ``g`` over its subspace; the
    acceptance one is positive semidefinite, so the modulus of its overlap
    is the acceptance."""
    return np.stack([moments.comparison_matrix(a, g.actual, g.subspace) for a in (g.target, g.actual)])


def _ratio_tallies(q: np.ndarray, work: np.ndarray) -> list:
    """Three partial tallies per gate of one batch of the conditional
    operators' overlaps ``q``: of f (its fidelity row, squared), of the
    acceptance a (its acceptance row) and of f - a, gate by gate. Merged
    over the stream, each tally sees its values in stream order, so a gate
    keeps its bits on a stream shared with other gates. An f that overflows
    raises ``ValueError`` in its tally, as in ``sampling._fold``."""
    partial, parts = sampling._Tally.partial, []
    for f, a in zip(q[::2], q[1::2]):  # in place, in this order: a lane allocates nothing batch-sized
        with np.errstate(over="ignore"):  # an f that overflows raises in its tally
            np.square(f, out=f)
        parts += [partial(f, work), partial(a, work), partial(np.subtract(f, a, out=a), work)]
    return parts


def _ratio(tallies, seed) -> sampling.McEstimate:
    """The ratio estimate R = mean f / mean a of one gate's tallies (f, a,
    f - a), with the delta-method standard error of mean(f - R a) / mean a.
    The tally of f - a gives the covariance of f and a, so
    Var(f - R a) = (1 - R) Var f + R (R - 1) Var a + R Var(f - a)."""
    f, a, d = (t.estimate(seed) for t in tallies)
    r = f.mean / a.mean
    var = (1 - r) * f.std_error**2 + r * (r - 1) * a.std_error**2 + r * d.std_error**2
    return sampling.McEstimate(r, math.sqrt(max(var, 0.0)) / a.mean, f.samples, seed)


def _plan_sa_decomposition(key: tuple, samples: int):
    """E f of a random m against E f of its Hermitian and anti-Hermitian
    parts S and A on one stream: <S> is real and <A> imaginary, so
    f = |<S>|^2 + |<A>|^2 on every state, and the means add up to rounding."""
    m = _random_matrix(np.random.default_rng(key), 3)
    jobs, estimates = _shared_streams(key, [m, (m + adjoint(m)) / 2.0, (m - adjoint(m)) / 2.0], (1,), samples)

    def judge(*results) -> CheckResult:
        total, herm, anti = (est.mean for est in estimates(*results))
        gap = abs(total - (herm + anti))
        return CheckResult("sa_decomposition", gap <= 1e-12 * max(1.0, total), f"mean gap {gap:.3g}")

    return jobs, judge


# The checks in report order, each a plan of its key; the quick level runs the first _QUICK_ROWS.
_CHECKS = (
    ("monomial_patterns", lambda key: check_monomial_patterns()),
    ("monomial_completeness", lambda key: check_monomial_completeness()),
    ("hermitian_collapse", lambda key: check_hermitian_collapse(key)),
    ("distribution_moments", lambda key: check_distribution_moments(key)),
    ("worked_values", lambda key: check_worked_values()),
    ("mc_closed_form", lambda key: _plan_mc_closed_form(key, 20_000)),
    ("histogram_regeneration", lambda key: _plan_histogram_regeneration(key, 1_000_000, 50)),
    ("mc_batch", lambda key: _plan_mc_batch(key, 100_000, 5)),
    ("conditional_oracle", lambda key: _plan_conditional_oracle(key, 100_000)),
    ("sa_decomposition", lambda key: _plan_sa_decomposition(key, 100_000)),
)
_QUICK_ROWS = 6


def _guarded(name: str, step, *args):
    """``step(*args)`` for the check ``name``: its plan, or its judge given
    its jobs' results. A ``ValueError`` (a broken invariant, a bad setting,
    a sampled f outside its histogram range) fails that check, and only it,
    with the error's text: the first one that ``sampling._lanes`` returned
    among the results, or one ``step`` raises."""
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
    rows = _CHECKS if level == "full" else _CHECKS[:_QUICK_ROWS]
    plans = [_guarded(name, plan, (seed, k)) for k, (name, plan) in enumerate(rows)]
    # One lane schedule runs every job; a check is judged on its own results.
    staged = [plan for plan in plans if not isinstance(plan, CheckResult)]
    results = iter(sampling._lanes([job for jobs, _ in staged for job in jobs]))
    checks = [
        plan if isinstance(plan, CheckResult) else _guarded(name, plan[1], *[next(results) for _ in plan[0]])
        for (name, _), plan in zip(rows, plans)
    ]
    report = [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks]
    return {"level": level, "seed": seed, "passed": all(c["passed"] for c in report), "checks": report}
