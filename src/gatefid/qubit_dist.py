"""Closed-form fidelity distribution for 2x2 normal maps.

For eigenvalues l0, l1 (ordered |l0| <= |l1|) and a Haar-uniform qubit state,
the weights |<e_i|psi>|^2 are uniform on the simplex, so z = <psi|m|psi> is
uniform on the segment [l0, l1]. With s the signed offset along the segment
from the foot of the perpendicular dropped from 0,

    f = |z|^2 = f0 + s^2,   f0 = Im(l0 conj(l0 - l1))^2 / d^2,   d = |l0 - l1|,

and s is uniform on [s0, s0 + d], s0 = -Re(l0 conj(l0 - l1)) / d (forms that
keep relative accuracy for near-degenerate spectra and arbitrarily close to
the case boundary). The density of f is the number of roots +-sqrt(f - f0)
in [s0, s1] over 2 d sqrt(f - f0): c = 1/(2d) on [|l0|^2, |l1|^2], plus
c = 1/d on [f0, |l0|^2] when the segment straddles the foot (s0 < 0).
Unit-modulus spectra give the unitary-gate law
1 / (2 sin(D/2) sqrt(f - cos^2(D/2))) on [cos^2(D/2), 1], D = phi1 - phi0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import QubitSpectrum
from .moments import InvariantError, MomentReport

DEGENERACY_TOL = 1e-12


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

    def pdf(self, f) -> np.ndarray | float:
        """Density at f; 0 outside the support, +inf exactly at f = f0 and
        where the density passes the float range."""
        farr = np.asarray(f, dtype=float)
        lo, hi = self.support()
        # Roots +-u of f = f0 + u^2 in [s0, s1], counted on the f side so the
        # piece ends are exact: +u over the support, -u over [f0, |l0|^2) if
        # s0 < 0, closed at |l0|^2 when +u ends there too.
        roots = ((farr >= lo) & (farr <= hi)).astype(float)
        under = (farr < self.f_l0) | ((farr <= self.f_l0) & (self.s1 <= -self.s0))
        roots += (self.s0 < 0.0) & (farr >= lo) & under
        u = np.sqrt(np.maximum(farr - self.f0, 0.0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def normal_pdf(s: QubitSpectrum) -> FidelityDistribution:
    """Fidelity density of a 2x2 normal map with the given spectrum."""
    l0, l1 = s.lambda0, s.lambda1
    r0, r1 = abs(l0), abs(l1)
    # Every quantity below is at most 4 |l1|^2, so this one test keeps them
    # finite. Squares are products: x * x follows a 2^k scale exactly; pow may not.
    if not math.isfinite(4.0 * r1 * r1):
        raise InvariantError(f"spectrum ({l0!r}, {l1!r}) is not representable: |l1|^2 overflows")
    # Degeneracy is judged relative to |l1|; the unit-modulus test below
    # stays absolute, since unit modulus fixes the scale.
    if abs(l0 - l1) <= DEGENERACY_TOL * r1:
        raise DegenerateSpectrumError(
            f"degenerate spectrum: point mass at f = {r0 * r0!r}", point_mass=r0 * r0
        )
    unit = abs(r0 - 1.0) <= DEGENERACY_TOL and abs(r1 - 1.0) <= DEGENERACY_TOL
    one_piece = abs(l0 - 0.5 * l1) < 0.5 * r1
    case = "unitary_like" if unit else "one_piece" if one_piece else "two_piece"
    diff = l0 - l1
    d = abs(diff)
    # The one-piece test gives the sign of s0; it stays reliable where the
    # rounded Re(...) is dust. |l0| <= |l1| bounds s0 below by -d/2: the
    # clamp only binds within input rounding of equal moduli.
    cross = l0 * diff.conjugate()
    u = abs(cross.real) / d
    s0 = u if one_piece else max(-u, -0.5 * d)
    # Im(l0 conj(l0 - l1)) = -Im(l0 conj(l1)), without the cancellation
    # of the latter when l0 and l1 nearly coincide.
    h = cross.imag / d  # the signed distance from 0 to the segment's line
    return FidelityDistribution(case, h * h, s0, s0 + d, r0 * r0, r1 * r1)


def quadrature_moments(d: FidelityDistribution) -> MomentReport:
    """Mean and second moment from the uniform law of s on [s0, s1].

    E[f] = f0 + E[s^2] and E[f^2] = f0^2 + 2 f0 E[s^2] + E[s^4], where
    E[s^k] = (s1^(k+1) - s0^(k+1)) / ((k+1)(s1 - s0)) has the extent factored
    out (x^k - y^k = (x - y) sum x^i y^(k-1-i)), so narrow segments stay accurate.
    """
    hi, lo, f0 = d.s1, d.s0, d.f0
    # Every term below is at most 8 top^2 in size, top >= max f: one test
    # keeps them finite.
    top = f0 + max(hi * hi, lo * lo)
    if not math.isfinite(8.0 * top * top):
        raise InvariantError(f"second moment is not representable: f up to {top!r} squared overflows")
    quad = hi * hi + hi * lo + lo * lo
    quart = (hi * hi + lo * lo) * quad - (hi * lo) * (hi * lo)
    return MomentReport(
        n_eff=2,
        mean=quad / 3.0 + f0,
        second_moment=quart / 5.0 + 2.0 * f0 * quad / 3.0 + f0 * f0,
    )

