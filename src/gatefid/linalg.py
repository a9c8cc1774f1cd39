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
    """An input is refused before any result is computed: a setting out of
    range, settings that do not fit together, a target that is not unitary,
    or a matrix without the structure a function needs. It is raised where
    the input is refused, and the CLI maps it to exit 1."""


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


def _is_unitary(m: np.ndarray) -> bool:
    """``m^dag m = I`` within ``DEFAULT_TOL`` (absolute: unitarity fixes the
    scale), for a matrix from :func:`as_matrix`. No unitary has an entry
    above 1, so one above 2 is refused before the product, which could overflow."""
    if float(np.abs(m).max()) > 2.0:
        return False
    gram = adjoint(m) @ m
    gram.ravel()[:: m.shape[0] + 1] -= 1.0  # a view: the product is contiguous
    return float(np.abs(gram).max()) <= DEFAULT_TOL


def check_selector(indices: Sequence[int], dim: int) -> tuple[int, ...]:
    """Validate a basis-index subset defining a subspace projector; a bad
    one raises :class:`ConfigError`."""
    raw = tuple(indices)
    sel = tuple(int(i) for i in raw)
    if sel != raw:
        raise ConfigError(f"selector indices must be integers, got {raw!r}")
    if not sel:
        raise ConfigError("subspace selector must be non-empty")
    if any(i < 0 or i >= dim for i in sel):
        raise ConfigError(f"selector indices must lie in [0, {dim})")
    if any(b <= a for a, b in zip(sel, sel[1:])):
        raise ConfigError("selector indices must be strictly increasing")
    return sel


def _pow2_exponent(x: float) -> int:
    """``frexp(x)``'s exponent e (0 at x = 0), clamped so 2^e and 2^-e stay normal."""
    return min(max(math.frexp(x)[1], -1000), 1000)


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
            raise ValueError(f"eigenvalues ({self.lambda0!r}, {self.lambda1!r}) are not finite")
        if abs(self.lambda0) > abs(self.lambda1):
            raise ValueError("eigenvalues must be ordered |lambda0| <= |lambda1|")

    @classmethod
    def ordered(cls, a: complex, b: complex) -> "QubitSpectrum":
        lo, hi = _canonical_order(complex(a), complex(b))
        return cls(lo, hi)


def eig2_normal(m: np.ndarray) -> QubitSpectrum:
    """Both eigenvalues of a 2x2 normal matrix, read off its Bloch form.

    With ``m = z0 I + c.sigma`` (sigma the Pauli vector), the eigenvalues are
    ``z0 -+ sqrt(c.c)`` and ``[m, m^dag] = 4 (Re c x Im c).sigma``. The
    numerical range is an ellipse whose minor semi-axis is, to within sqrt 2,
    ``|Re c x Im c| / |c|``; unless that is at most ``DEFAULT_TOL`` relative
    to ``max|m_ij|``, :class:`ConfigError` is raised, as for a matrix that is
    not 2x2. The work runs on ``m / 2^e`` with ``2^e`` near ``max|m_ij|``, and
    scaling by a power of two is exact, so ``eig2_normal(2^k m)`` is
    ``2^k eig2_normal(m)`` bit for bit while ``2^e`` stays within
    ``2^-1000 .. 2^1000``, except where a real or imaginary part of an
    eigenvalue rounds into the subnormal range: scaling back by ``2^e`` is not
    exact there, and that part may differ by one subnormal ulp (5e-324).
    """
    m = as_matrix(m)
    if m.shape[0] != 2:
        raise ConfigError("eig2_normal requires a 2x2 matrix")
    entries = m.ravel().tolist()
    big = max(max(abs(z.real), abs(z.imag)) for z in entries)
    e = _pow2_exponent(big)
    a, b, c, d = (z * math.ldexp(1.0, -e) for z in entries)
    z0 = 0.5 * (a + d)
    bloch = (0.5 * (b + c), 0.5j * (b - c), 0.5 * (a - d))
    (px, qx), (py, qy), (pz, qz) = ((v.real, v.imag) for v in bloch)
    cross = math.hypot(py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx)
    if cross > DEFAULT_TOL * math.hypot(px, py, pz, qx, qy, qz):
        raise ConfigError("matrix is not normal within tolerance")
    w = cmath.sqrt(sum(v * v for v in bloch))
    scale = math.ldexp(1.0, e)
    return QubitSpectrum.ordered((z0 - w) * scale, (z0 + w) * scale)
