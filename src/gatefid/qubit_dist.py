"""Closed-form fidelity distribution for 2x2 normal maps.

With eigenvalues l0, l1 (ordered |l0| <= |l1|) the density of
f = |<psi|m|psi>|^2 over Haar-uniform qubit states is piecewise
c / sqrt(f - f0) with the singular anchor

    f0 = Im(l0 conj(l1))^2 / |l0 - l1|^2.

Writing z = l0 conj(l1) and d = |l0 - l1|, the anchored offsets at the piece
endpoints have the exact forms |l0|^2 - f0 = (|l0|^2 - Re z)^2 / d^2 and
|l1|^2 - f0 = (|l1|^2 - Re z)^2 / d^2, which this module uses so that masses
and moments stay accurate arbitrarily close to the case boundary.

Case split: a single piece on [|l0|^2, |l1|^2] with c = 1/(2d) when
|l0 - l1/2| < |l1|/2, otherwise an extra piece on [f0, |l0|^2] with c = 1/d.
Unit-modulus spectra reduce to the unitary-gate law
1 / (2 sin(D/2) sqrt(f - cos^2(D/2))) on [cos^2(D/2), 1], D = phi1 - phi0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import QubitSpectrum
from .moments import InvariantError, MomentReport
from .sampling import Histogram

CASE_UNITARY = "unitary_like"
CASE_ONE_PIECE = "one_piece"
CASE_TWO_PIECE = "two_piece"

DEGENERACY_TOL = 1e-12
MIN_EXPECTED_COUNT = 5.0


class DegenerateSpectrumError(ValueError):
    """Equal eigenvalues: the distribution is a point mass, not a density.

    ``point_mass`` carries the location |l0|^2 where all probability sits.
    """

    def __init__(self, message: str, point_mass: float):
        super().__init__(message)
        self.point_mass = point_mass


@dataclass(frozen=True)
class Piece:
    """Density c / sqrt(f - f0) on [f_lo, f_hi].

    ``u_lo`` and ``u_hi`` are sqrt(f - f0) at the endpoints, precomputed in a
    cancellation-free form at construction.
    """

    f_lo: float
    f_hi: float
    coeff: float
    u_lo: float
    u_hi: float

    @property
    def mass(self) -> float:
        return 2.0 * self.coeff * (self.u_hi - self.u_lo)


@dataclass(frozen=True, eq=False)
class FidelityDistribution:
    """Piecewise closed-form fidelity density for a qubit map."""

    spectrum: QubitSpectrum
    case: str
    f0: float
    pieces: tuple[Piece, ...]

    def support(self) -> tuple[float, float]:
        return self.pieces[0].f_lo, self.pieces[-1].f_hi

    def mass(self) -> float:
        """Analytic total probability; 1 up to rounding by construction."""
        return sum(p.mass for p in self.pieces)

    def pdf(self, f) -> np.ndarray | float:
        """Density at f; 0 outside the support, +inf exactly at f = f0."""
        farr = np.asarray(f, dtype=float)
        out = np.zeros_like(farr)
        for i, p in enumerate(self.pieces):
            hi_closed = i == len(self.pieces) - 1
            inside = (farr >= p.f_lo) & ((farr <= p.f_hi) if hi_closed else (farr < p.f_hi))
            at_anchor = inside & (farr <= self.f0)
            regular = inside & ~at_anchor
            out[at_anchor] = np.inf
            out[regular] = p.coeff / np.sqrt(farr[regular] - self.f0)
        return out if out.ndim else float(out)

    def cdf(self, f) -> np.ndarray | float:
        """Probability of fidelity at most f, clamped to [0, 1]."""
        farr = np.asarray(f, dtype=float)
        out = np.zeros_like(farr)
        for p in self.pieces:
            u = np.sqrt(np.clip(farr - self.f0, 0.0, None))
            u = np.clip(u, p.u_lo, p.u_hi)
            # Endpoint overrides keep piece contributions exact even when
            # the f-grid cannot resolve the u-extent (sub-ulp supports).
            u = np.where(farr >= p.f_hi, p.u_hi, u)
            u = np.where(farr < p.f_lo, p.u_lo, u)
            out += 2.0 * p.coeff * (u - p.u_lo)
        out = np.clip(out, 0.0, 1.0)
        return out if out.ndim else float(out)

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "f0": self.f0,
            "support": list(self.support()),
            "pieces": [
                {"f_lo": p.f_lo, "f_hi": p.f_hi, "c": p.coeff} for p in self.pieces
            ],
        }


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


def _check_nondegenerate(s: QubitSpectrum) -> None:
    if abs(s.lambda0 - s.lambda1) <= DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"degenerate spectrum: point mass at f = {abs(s.lambda0) ** 2!r}",
            point_mass=abs(s.lambda0) ** 2,
        )


def classify_case(s: QubitSpectrum) -> str:
    """Which closed-form case applies to a non-degenerate spectrum."""
    _check_nondegenerate(s)
    if abs(abs(s.lambda0) - 1.0) <= DEGENERACY_TOL and abs(abs(s.lambda1) - 1.0) <= DEGENERACY_TOL:
        return CASE_UNITARY
    if abs(s.lambda0 - 0.5 * s.lambda1) < 0.5 * abs(s.lambda1):
        return CASE_ONE_PIECE
    return CASE_TWO_PIECE


def unitary_pdf(phi0: float, phi1: float) -> FidelityDistribution:
    """Fidelity density of a unitary qubit map with eigenphases phi0, phi1."""
    delta = math.fmod(abs(float(phi1) - float(phi0)), 2.0 * math.pi)
    if min(delta, 2.0 * math.pi - delta) <= 1e-12:
        raise DegenerateSpectrumError(
            "equal eigenphases: point mass at f = 1.0", point_mass=1.0
        )
    half = 0.5 * delta
    sin_half = math.sin(half)
    f0 = math.cos(half) ** 2
    piece = Piece(f_lo=f0, f_hi=1.0, coeff=0.5 / sin_half, u_lo=0.0, u_hi=sin_half)
    return FidelityDistribution(
        spectrum=QubitSpectrum.ordered(cmath.exp(1j * phi0), cmath.exp(1j * phi1)),
        case=CASE_UNITARY,
        f0=f0,
        pieces=(piece,),
    )


def normal_pdf(s: QubitSpectrum) -> FidelityDistribution:
    """Fidelity density of a 2x2 normal map with the given spectrum."""
    case = classify_case(s)
    l0, l1 = s.lambda0, s.lambda1
    a2 = abs(l0) ** 2
    b2 = abs(l1) ** 2
    diff = l0 - l1
    d = abs(diff)
    f0 = ((l0 * l1.conjugate()).imag / d) ** 2
    # |l0|^2 - Re(l0 conj(l1)) in a factored form that keeps relative
    # accuracy; the other endpoint offset follows from u_a -+ u_b = d.
    gap_a = (l0 * diff.conjugate()).real
    u_a = abs(gap_a) / d
    if case == CASE_ONE_PIECE:
        # The upper endpoint offset is u_a + d analytically. Deriving the
        # coefficient from the representable extent keeps the total mass at
        # exactly 1 even when u_a >> d; for well-separated spectra the
        # extent is d to the last ulp and the coefficient is plain 1/(2d).
        u_hi = u_a + d
        pieces = (
            Piece(f_lo=a2, f_hi=b2, coeff=0.5 / (u_hi - u_a), u_lo=u_a, u_hi=u_hi),
        )
    else:
        # Zero-width pieces are dropped by their u-extent: that is what
        # carries mass, and it stays meaningful when f endpoints collide
        # through rounding at the case boundary. The ordering |l0| <= |l1|
        # bounds u_a by d/2; the clamp only binds within input rounding of
        # equal moduli and keeps the two extents telescoping to d.
        u_a = min(u_a, 0.5 * d)
        u_b = d - u_a
        pieces = []
        if u_a > 0.0:
            pieces.append(Piece(f_lo=f0, f_hi=a2, coeff=1.0 / d, u_lo=0.0, u_hi=u_a))
        if u_b > u_a:
            pieces.append(Piece(f_lo=a2, f_hi=b2, coeff=0.5 / d, u_lo=u_a, u_hi=u_b))
        pieces = tuple(pieces)
    dist = FidelityDistribution(spectrum=s, case=case, f0=f0, pieces=pieces)
    if not abs(dist.mass() - 1.0) <= 1e-10:
        raise InvariantError(f"density mass {dist.mass()} is not 1")
    return dist


def quadrature_moments(d: FidelityDistribution) -> MomentReport:
    """Mean and second moment by the elementary antiderivatives.

    With u = sqrt(f - f0), each piece contributes
    2c [u^3/3 + f0 u] to the mean and 2c [u^5/5 + 2 f0 u^3/3 + f0^2 u] to the
    second moment. The endpoint differences are evaluated with the piece
    extent factored out (x^k - y^k = (x - y) sum x^i y^(k-1-i)) so narrow
    pieces lose no relative accuracy.
    """
    f0 = d.f0
    mean = 0.0
    second = 0.0
    for p in d.pieces:
        lo, hi = p.u_lo, p.u_hi
        mass = 2.0 * p.coeff * (hi - lo)
        quad = hi * hi + hi * lo + lo * lo
        quart = (hi * hi + lo * lo) * quad - (hi * lo) ** 2
        mean += mass * (quad / 3.0 + f0)
        second += mass * (quart / 5.0 + 2.0 * f0 * quad / 3.0 + f0 * f0)
    return MomentReport(n_eff=2, mean=mean, second_moment=second)


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
    cdf_edges = d.cdf(h.edges)
    probs = np.diff(cdf_edges)
    expected = probs * h.samples
    usable = expected >= MIN_EXPECTED_COUNT
    if not usable.any():
        raise ValueError("no histogram bin has expected count >= 5")
    chi_square = float(
        (((h.counts[usable] - expected[usable]) ** 2) / expected[usable]).sum()
    )
    gap = float(np.abs(h.densities - probs / widths).max())
    bins_compared = int(usable.sum())
    return HistogramComparison(
        sup_norm_density_gap=gap,
        chi_square=chi_square,
        dof=bins_compared - 1,
        bins_compared=bins_compared,
    )


def total_variation_distance(d1: FidelityDistribution, d2: FidelityDistribution) -> float:
    """Exact total variation distance (1/2) integral |p1 - p2| df.

    The integrand has constant sign between consecutive breakpoints once the
    piece edges of both densities and the per-interval crossing points are
    included, so each stretch integrates exactly via CDF differences.
    """
    points = {p.f_lo for p in d1.pieces} | {p.f_hi for p in d1.pieces}
    points |= {p.f_lo for p in d2.pieces} | {p.f_hi for p in d2.pieces}
    breaks = sorted(points)
    refined = []
    for x, y in zip(breaks, breaks[1:]):
        refined.append(x)
        mid = 0.5 * (x + y)
        c1 = _coeff_at(d1, mid)
        c2 = _coeff_at(d2, mid)
        if c1 > 0 and c2 > 0 and c1 != c2:
            cross = (c1 * c1 * d2.f0 - c2 * c2 * d1.f0) / (c1 * c1 - c2 * c2)
            if x < cross < y:
                refined.append(cross)
    refined.append(breaks[-1])
    total = 0.0
    for x, y in zip(refined, refined[1:]):
        total += abs((d1.cdf(y) - d1.cdf(x)) - (d2.cdf(y) - d2.cdf(x)))
    return 0.5 * total


def _coeff_at(d: FidelityDistribution, f: float) -> float:
    for p in d.pieces:
        if p.f_lo <= f < p.f_hi:
            return p.coeff
    return 0.0
