"""Closed-form fidelity distribution for 2x2 normal maps.

For eigenvalues l0, l1 (ordered |l0| <= |l1|) and a Haar-uniform qubit state,
the weights |<e_i|psi>|^2 are uniform on the simplex, so z = <psi|m|psi> is
uniform on the segment [l0, l1]. With s the signed offset along the segment
from the foot of the perpendicular dropped from 0,

    f = |z|^2 = f0 + s^2,   f0 = Im(l0 conj(l1))^2 / d^2,   d = |l0 - l1|,

and s is uniform on [s0, s0 + d], s0 = -Re(l0 conj(l0 - l1)) / d (a form that
keeps relative accuracy arbitrarily close to the case boundary). The density
of f is the number of roots +-sqrt(f - f0) in [s0, s1] over 2 d sqrt(f - f0):
c = 1/(2d) on [|l0|^2, |l1|^2], plus c = 1/d on [f0, |l0|^2] when the segment
straddles the foot (s0 < 0). Unit-modulus spectra give the unitary-gate law
1 / (2 sin(D/2) sqrt(f - cos^2(D/2))) on [cos^2(D/2), 1], D = phi1 - phi0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import QubitSpectrum
from .moments import InvariantError, MomentReport
from .sampling import Histogram

DEGENERACY_TOL = 1e-12
MIN_EXPECTED_COUNT = 5.0


class DegenerateSpectrumError(ValueError):
    """Equal eigenvalues: the distribution is a point mass, not a density.

    ``point_mass`` carries the location |l0|^2 where all probability sits.
    """

    def __init__(self, message: str, point_mass: float):
        super().__init__(message)
        self.point_mass = point_mass


@dataclass(frozen=True, eq=False)
class FidelityDistribution:
    """Law of f = f0 + s^2 with s uniform on [s0, s1].

    ``f_l0`` and ``f_l1`` are |l0|^2 and |l1|^2, the fidelities at the
    segment ends. The length ``d`` is the representable extent s1 - s0, so
    the law integrates to 1 exactly even when |s0| >> |l0 - l1|.
    """

    spectrum: QubitSpectrum
    case: str
    f0: float
    s0: float
    s1: float
    f_l0: float
    f_l1: float

    @property
    def d(self) -> float:
        return self.s1 - self.s0

    def support(self) -> tuple[float, float]:
        # The f range of +s on [max(s0, 0), s1]; s1 <= -s0 only when both
        # ends sit at the same modulus, and then f_l0 is the top.
        lo = self.f0 if self.s0 < 0.0 else self.f_l0
        return lo, self.f_l1 if self.s1 > -self.s0 else self.f_l0

    def mass(self) -> float:
        """Total probability: 1 by construction, NaN if a bound is not finite."""
        return (self.s1 - self.s0) / self.d

    def pdf(self, f) -> np.ndarray | float:
        """Density at f; 0 outside the support, +inf exactly at f = f0."""
        farr = np.asarray(f, dtype=float)
        lo, hi = self.support()
        # Roots +-u of f = f0 + u^2 in [s0, s1], counted on the f side so the
        # piece ends are exact: +u over the support, -u over [f0, |l0|^2) if
        # s0 < 0, closed at |l0|^2 when +u ends there too.
        roots = ((farr >= lo) & (farr <= hi)).astype(float)
        under = (farr < self.f_l0) | ((farr <= self.f_l0) & (self.s1 <= -self.s0))
        roots += (self.s0 < 0.0) & (farr >= lo) & under
        u = np.sqrt(np.maximum(farr - self.f0, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(roots > 0, roots / (2.0 * self.d * u), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, f) -> np.ndarray | float:
        """Probability of fidelity at most f, clamped to [0, 1]."""
        farr = np.asarray(f, dtype=float)
        s0, s1 = self.s0, self.s1
        lo, hi = self.support()
        u = np.sqrt(np.maximum(farr - self.f0, 0.0))
        # Pin u at the piece ends so the masses are exact even when the
        # f grid cannot resolve the u extent (sub-ulp supports).
        u = np.where(farr >= self.f_l0, np.maximum(u, abs(s0)), np.minimum(u, abs(s0)))
        u = np.where(farr >= hi, s1, np.minimum(u, s1))
        out = np.clip((np.minimum(u, s1) - np.maximum(-u, s0)) / self.d, 0.0, 1.0)
        out = np.where(farr < lo, 0.0, out)
        return out if out.ndim else float(out)

    def as_dict(self) -> dict:
        pieces = []
        if self.s0 < 0.0:
            pieces.append({"f_lo": self.f0, "f_hi": self.f_l0, "c": 1.0 / self.d})
        if self.s1 > -self.s0:
            pieces.append({"f_lo": self.f_l0, "f_hi": self.f_l1, "c": 0.5 / self.d})
        support = list(self.support())
        return {"case": self.case, "f0": self.f0, "support": support, "pieces": pieces}


@dataclass(frozen=True)
class HistogramComparison:
    """Goodness-of-fit of a sampled histogram against the closed form."""

    sup_norm_density_gap: float
    chi_square: float
    dof: int
    bins_compared: int

    def __post_init__(self):
        if self.sup_norm_density_gap < 0 or self.chi_square < 0:
            raise ValueError("gaps must be non-negative")


def normal_pdf(s: QubitSpectrum) -> FidelityDistribution:
    """Fidelity density of a 2x2 normal map with the given spectrum."""
    l0, l1 = s.lambda0, s.lambda1
    # Every quantity below is at most 4 |l1|^2 in size, so this one test
    # keeps them finite (and float ** 2 from raising OverflowError).
    if not math.isfinite(4.0 * abs(l1) * abs(l1)):
        raise InvariantError(f"spectrum ({l0!r}, {l1!r}) is not representable: |l1|^2 overflows")
    if abs(l0 - l1) <= DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"degenerate spectrum: point mass at f = {abs(l0) ** 2!r}",
            point_mass=abs(l0) ** 2,
        )
    unit = abs(abs(l0) - 1.0) <= DEGENERACY_TOL and abs(abs(l1) - 1.0) <= DEGENERACY_TOL
    one_piece = abs(l0 - 0.5 * l1) < 0.5 * abs(l1)
    case = "unitary_like" if unit else "one_piece" if one_piece else "two_piece"
    diff = l0 - l1
    d = abs(diff)
    # The case test gives the sign of s0; it stays reliable where the
    # rounded Re(...) is dust. |l0| <= |l1| bounds s0 below by -d/2: the
    # clamp only binds within input rounding of equal moduli.
    u = abs((l0 * diff.conjugate()).real) / d
    s0 = u if case == "one_piece" else max(-u, -0.5 * d)
    f0 = ((l0 * l1.conjugate()).imag / d) ** 2
    out = FidelityDistribution(s, case, f0, s0, s0 + d, abs(l0) ** 2, abs(l1) ** 2)
    if not abs(out.mass() - 1.0) <= 1e-10:
        raise InvariantError(f"density mass {out.mass()} is not 1")
    return out


def quadrature_moments(d: FidelityDistribution) -> MomentReport:
    """Mean and second moment from the uniform law of s on [s0, s1].

    E[f] = f0 + E[s^2] and E[f^2] = f0^2 + 2 f0 E[s^2] + E[s^4], where
    E[s^k] = (s1^(k+1) - s0^(k+1)) / ((k+1)(s1 - s0)) has the extent factored
    out (x^k - y^k = (x - y) sum x^i y^(k-1-i)), so narrow segments stay accurate.
    """
    hi, lo, f0 = d.s1, d.s0, d.f0
    quad = hi * hi + hi * lo + lo * lo
    quart = (hi * hi + lo * lo) * quad - (hi * lo) ** 2
    return MomentReport(
        n_eff=2,
        mean=quad / 3.0 + f0,
        second_moment=quart / 5.0 + 2.0 * f0 * quad / 3.0 + f0 * f0,
    )


def compare_histogram(d: FidelityDistribution, h: Histogram) -> HistogramComparison:
    """Chi-square and density sup-norm of a sampled histogram vs the density.

    Expected bin probabilities come from CDF differences; the chi-square runs
    over bins with expected count at least 5 (dof = that count minus one).
    The sup-norm compares empirical densities against the bin-averaged
    analytic density over all bins.
    """
    lo, hi = d.support()
    widths = h.widths
    if h.edges[0] < lo - widths[0] - 1e-12 or h.edges[-1] > hi + widths[-1] + 1e-12:
        raise ValueError("histogram extends beyond the support by more than one bin")
    probs = np.diff(d.cdf(h.edges))
    expected = probs * h.samples
    usable = expected >= MIN_EXPECTED_COUNT
    if not usable.any():
        raise ValueError("no histogram bin has expected count >= 5")
    chi_square = float((((h.counts[usable] - expected[usable]) ** 2) / expected[usable]).sum())
    gap = float(np.abs(h.densities - probs / widths).max())
    bins_compared = int(usable.sum())
    return HistogramComparison(
        sup_norm_density_gap=gap,
        chi_square=chi_square,
        dof=bins_compared - 1,
        bins_compared=bins_compared,
    )
