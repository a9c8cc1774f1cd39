"""Dense complex matrix helpers for small gate maps.

Matrices are numpy ``complex128`` arrays of shape ``(n, n)``. Every function
here is pure: inputs are never mutated, results are fresh arrays, so values
can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-10


class ConfigError(ValueError):
    """A setting is out of range, or settings do not fit together: a usage
    error, raised before any work is done."""


class NotNormalError(ValueError):
    """The matrix does not commute with its adjoint within tolerance."""


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.asarray(m)).T


def _within(a: np.ndarray, tol: float) -> bool:
    """The entrywise max modulus of ``a`` is at most ``tol`` (absolute)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return float(np.abs(a).max()) <= tol


def _is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """``m^dag m = I`` within ``tol``, for a matrix from :func:`as_matrix`."""
    gram = adjoint(m) @ m
    gram.ravel()[:: m.shape[0] + 1] -= 1.0  # a view: the product is contiguous
    return _within(gram, tol)


def _is_normal(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """``m m^dag = m^dag m`` within ``tol``, for a matrix from :func:`as_matrix`."""
    md = adjoint(m)
    comm = m @ md
    comm -= md @ m
    return _within(comm, tol)


def check_selector(indices: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate a basis-index subset defining a subspace projector."""
    sel = tuple(int(i) for i in indices)
    if not sel:
        raise ValueError("subspace selector must be non-empty")
    if any(i < 0 or i >= dim for i in sel):
        raise ValueError(f"selector indices must lie in [0, {dim})")
    if any(b <= a for a, b in zip(sel, sel[1:])):
        raise ValueError("selector indices must be strictly increasing")
    return sel


def _canonical_order(a: complex, b: complex) -> tuple[complex, complex]:
    # Sort by modulus; on exact ties, by principal argument in (-pi, pi].
    if abs(a) < abs(b):
        return a, b
    if abs(a) > abs(b):
        return b, a
    if cmath.phase(a) <= cmath.phase(b):
        return a, b
    return b, a


@dataclass(frozen=True)
class QubitSpectrum:
    """Eigenvalue pair of a 2x2 normal map, ordered |lambda0| <= |lambda1|."""

    lambda0: complex
    lambda1: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.lambda0) and cmath.isfinite(self.lambda1)):
            raise ValueError("eigenvalues must be finite")
        if abs(self.lambda0) > abs(self.lambda1):
            raise ValueError("eigenvalues must be ordered |lambda0| <= |lambda1|")

    @classmethod
    def ordered(cls, a: complex, b: complex) -> "QubitSpectrum":
        lo, hi = _canonical_order(complex(a), complex(b))
        return cls(lo, hi)


def eig2_normal(m: np.ndarray, tol: float = DEFAULT_TOL) -> QubitSpectrum:
    """Both eigenvalues of a 2x2 normal matrix, by the closed-form quadratic.

    Raises :class:`NotNormalError` if the matrix is not normal within ``tol``.
    """
    m = as_matrix(m)
    if m.shape[0] != 2:
        raise ValueError("eig2_normal requires a 2x2 matrix")
    # The normality test forms m m^dag - m^dag m, whose parts stay below
    # 16 max|m_ij|^2; past that it overflows and cannot tell normal maps apart.
    big = float(np.abs(m).max())
    if not math.isfinite(16.0 * big * big):
        raise ValueError(f"matrix is not representable: |m_ij|^2 overflows (max |m_ij| = {big!r})")
    if not _is_normal(m, tol):
        raise NotNormalError("matrix is not normal within tolerance")
    a, b = complex(m[0, 0]), complex(m[0, 1])
    c, d = complex(m[1, 0]), complex(m[1, 1])
    half_tr = 0.5 * (a + d)
    det = a * d - b * c
    r = cmath.sqrt(half_tr * half_tr - det)
    # Pick the root that avoids cancellation, recover the other from det.
    if (half_tr.conjugate() * r).real < 0.0:
        r = -r
    big = half_tr + r
    small = det / big if big != 0 else half_tr - r
    return QubitSpectrum.ordered(small, big)
