"""Haar-uniform pure states, Monte-Carlo fidelity estimates, sphere integrals.

States are sampled by normalizing standard complex Gaussian vectors, which is
Haar-uniform on the unit sphere of C^n for every n. Every seeded Monte-Carlo
path draws from one stream, :func:`state_batches`, and is deterministic for a
fixed ``(seed, samples)`` pair. The stream yields unnormalized Gaussian rows
``v``; the kernel takes ``f = (|<v|m|v>| / |v|^2)^2``. The states ``v / |v|``
a seed draws are pinned bit for bit; ``f`` may differ from earlier versions in
the last bits.

``mc_moment`` and ``mc_sample`` make one streaming pass over those batches
into one tally: running moments and bin counts, so their memory does not grow
with the sample count. A histogram's range is fixed before the first draw: an
outer bound on f from the map's numerical range. ``mc_sample`` takes its
estimate and its histogram from the same draws. A bad bin or sample count
raises :class:`~gatefid.linalg.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, factorial, frexp, ldexp, pi, sqrt
from typing import Iterator, Sequence

import numpy as np

from .linalg import ConfigError, as_matrix

_BATCH = 1 << 14
_ANGLES = 64
_ZOOMS = 5


def _gaussian_rows(
    rng: np.random.Generator, z: np.ndarray, r2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill ``z`` (shape (count, 2n)) with normals, whose consecutive pairs
    (re, im) make the rows of its complex view ``v``, and ``r2`` with
    ``|v|^2``. A row too short to normalize is redrawn in place."""
    rng.standard_normal(out=z)
    np.einsum("ij,ij->i", z, z, out=r2)
    for i in np.flatnonzero(r2 <= 1e-300):
        while r2[i] <= 1e-300:
            rng.standard_normal(out=z[i])
            r2[i] = z[i] @ z[i]
    return z.view(np.complex128), r2


def monomial_integral_exact(k: Sequence[int], n: int) -> Fraction:
    """Exact sphere average of prod_i |c_i|^(2 k_i) as a Fraction.

    Equals (n-1)! * prod_i k_i! / (n-1+sum_i k_i)!.
    """
    exps = tuple(int(x) for x in k)
    if len(exps) != n:
        raise ValueError(f"expected {n} exponents, got {len(exps)}")
    if any(x < 0 for x in exps):
        raise ValueError("exponents must be non-negative")
    total = sum(exps)
    if total == 0:
        raise ValueError("at least one exponent must be positive")
    num = factorial(n - 1)
    for x in exps:
        num *= factorial(x)
    return Fraction(num, factorial(n - 1 + total))


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram of sampled fidelities."""

    edges: np.ndarray
    counts: np.ndarray
    samples: int
    seed: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def densities(self) -> np.ndarray:
        return self.counts / (self.samples * self.widths)


def state_batches(n: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``samples`` Gaussian rows on C^n with their squared norms, in
    batches. Row ``v`` stands for the state ``v / |v|``.

    Every batch is drawn into the same two arrays, so a batch is only valid
    until the next one is requested.
    """
    rows = min(_BATCH, samples)
    return _draw_batches(samples, seed, np.empty((rows, 2 * n)), np.empty(rows))


def _draw_batches(
    samples: int, seed: int, z: np.ndarray, r2: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`state_batches` drawing into the caller's ``z`` and ``r2``."""
    # The seed's first SeedSequence child rather than the seed itself, so
    # that every seed keeps the states it has always drawn.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for done in range(0, samples, _BATCH):
        count = min(_BATCH, samples - done)
        yield _gaussian_rows(rng, z[:count], r2[:count])


def expectation(states: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<psi|a|psi> for every row psi of ``states``."""
    return np.einsum("bj,bj->b", states.conj() @ a, states)


def _fidelity_batches(m: np.ndarray, samples: int, seed: int) -> Iterator[np.ndarray]:
    """f = (|<v|m|v>| / |v|^2)^2 for each batch of :func:`state_batches`,
    in an array that, like the rows, the next batch overwrites."""
    m = as_matrix(m)
    n = m.shape[0]
    rows = min(_BATCH, samples)
    # Every per-batch array is a block of one workspace. As separate arrays,
    # freed at the end of each stream, the allocator handed them back to the
    # system and the next stream page-faulted them in again.
    work = np.split(np.empty(rows * (6 * n + 4)), rows * np.cumsum([2 * n, 2 * n, 2 * n, 2, 1]))
    z, norm2, fid = work[0].reshape(rows, 2 * n), work[4], work[5]
    conj, prod = (block.view(complex).reshape(rows, n) for block in work[1:3])
    overlap = work[3].view(complex)
    for v, r2 in _draw_batches(samples, seed, z, norm2):
        k = len(v)
        # A decorator would not cover a generator's body, so the state is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            # expectation(v, m), with the same arithmetic, in the workspace
            np.matmul(np.conjugate(v, out=conj[:k]), m, out=prod[:k])
            f = np.abs(np.einsum("bj,bj->b", prod[:k], v, out=overlap[:k]), out=fid[:k])
            f /= r2
            np.square(f, out=f)
        if not np.isfinite(f.max()):  # max propagates NaN
            raise ValueError("sampled fidelity overflows: the map's entries are too large")
        yield f


def _herm_spectra(a: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Herm(e^{-i t} a) for each angle t, by one
    batched ``eigvalsh`` on the (len(theta), n, n) stack."""
    b = np.exp(-1j * theta)[:, None, None] * a
    b += np.conjugate(b).transpose(0, 2, 1)
    return np.linalg.eigvalsh(b) / 2


def _outer_range(m: np.ndarray, bins: int) -> tuple[float, float]:
    """A histogram range fixed before sampling that holds every f of ``m``.

    f is |z|^2 for z in the numerical range W(m), a convex set with support
    function h(t) = lambda_max(Herm(e^{-i t} m)) (Toeplitz-Hausdorff; C. R.
    Johnson, SIAM J. Numer. Anal. 15, 1978). Every z has one of ``_ANGLES``
    equally spaced angles within pi/_ANGLES of arg z, so |z| cos(pi/_ANGLES)
    is at most the largest h there; also |z| <= ||m||_2, which is exact for
    normal maps. Below, dist(0, W) >= -h(t + pi) = lambda_min(Herm(e^{-i t} m))
    at every t, so the best grid angle is refined on ``_ZOOMS`` finer grids
    around it; near-unitary and scalar maps then get their bottom edge to a
    few ulps. Rounding is left to the 1e-9 edge slack of :class:`_Tally`, far
    above the eigensolver's error of 8 n eps ||m||_F (2e-13 of ||m||_2 at n=5).
    A range narrower than ``bins`` ulps, as for c I, is opened just below
    its top, so all the mass lands in the top bin.
    """
    scale = float(np.abs(m).max())
    if scale == 0.0:
        lo = hi = 0.0
    else:
        a = m / scale  # every product below stays finite
        step = 2 * pi / _ANGLES
        theta = step * np.arange(_ANGLES)
        w = _herm_spectra(a, theta)
        top = min(float(w[:, -1].max()) / cos(pi / _ANGLES), float(np.linalg.norm(a, 2)))
        low = float(w[:, 0].max())
        for _ in range(_ZOOMS):
            theta = theta[w[:, 0].argmax()] + np.linspace(-step, step, _ANGLES)
            step *= 2 / (_ANGLES - 1)
            w = _herm_spectra(a, theta)
            low = max(low, float(w[:, 0].max()))
        # Python floats: an overflowing square is inf, with no warning; no
        # finite f lies above the largest float.
        big = np.finfo(float).max
        lo_z, hi_z = scale * max(low, 0.0), scale * top
        lo, hi = min(lo_z * lo_z, big), min(hi_z * hi_z, big)
    if hi - lo < bins * np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
        lo = hi - 1e-9 * max(1.0, abs(hi))
    return lo, hi


class _Tally:
    """What one pass over the value batches keeps.

    Moments: each batch's two-pass ``(count, mean, M2)`` is merged into the
    running one by the pairwise update of Chan, Golub & LeVeque (Amer. Stat.
    37, 1983). They are taken on ``x / 2^e``, with ``2^e`` fixed by the first
    batch's largest value, so squared deviations neither overflow nor
    underflow where ``x`` is near the ends of the float range; a power-of-two
    scale is exact, so the estimate is the same bits as unscaled wherever
    that does not happen.
    Histogram (when ``bins`` is given, over ``value_range``): each batch is
    clamped and its bin counts added.
    """

    def __init__(self, bins: int, value_range: tuple[float, float] | None):
        self.count, self.mean, self.m2 = 0, 0.0, 0.0
        self.exponent = None  # of the moments' scale 2^e
        self.bins, self.range = bins, value_range
        self.counts, self.edges = np.zeros(bins, dtype=np.intp), None
        self.work = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        """Take one batch; values at the range's edges are clamped in place."""
        if self.work.size < x.size:
            self.work = np.empty(x.size)
        tmp = self.work[: x.size]
        count = self.count + x.size
        # The moments come first, so the estimate never sees the clamp.
        if self.exponent is None:
            # frexp(0) gives e = 0; the clamp keeps 2^e and 2^-e normal.
            self.exponent = min(max(frexp(float(x.max()))[1], -1000), 1000)
        np.multiply(x, ldexp(1.0, -self.exponent), out=tmp)
        mean = float(tmp.mean())
        np.square(np.subtract(tmp, mean, out=tmp), out=tmp)
        delta = mean - self.mean
        self.mean += delta * (x.size / count)
        self.m2 += float(tmp.sum()) + delta * delta * (self.count * x.size / count)
        if self.bins:
            # Keep boundary rounding dust (f = support edge +- ~1e-15) in range:
            # values up to ``slack`` outside an edge, or up to ``inner`` inside
            # it, move onto it. Anything further out is genuinely outside and
            # stays dropped. ``inner`` is at most half a bin, so no value inside
            # changes bin and a range narrower than the slack keeps its shape.
            # A batch with no value within reach of an edge skips its pass.
            lo, hi = self.range
            slack = 1e-9 * max(1.0, abs(lo), abs(hi))
            inner = min(slack, (hi - lo) / (2 * self.bins))
            half = (slack + inner) / 2
            if x.min() <= lo + inner:
                x[np.abs(np.subtract(x, lo + (inner - slack) / 2, out=tmp), out=tmp) <= half] = lo
            if x.max() >= hi - inner:
                x[np.abs(np.subtract(x, hi + (slack - inner) / 2, out=tmp), out=tmp) <= half] = hi
            counts, self.edges = np.histogram(x, self.bins, self.range)
            self.counts += counts
        self.count = count

    def estimate(self, seed: int) -> McEstimate:
        scale = ldexp(1.0, self.exponent)
        std_error = sqrt(self.m2 / (self.count - 1)) / sqrt(self.count)
        return McEstimate(self.mean * scale, std_error * scale, self.count, seed)

    def histogram(self, seed: int) -> Histogram:
        return Histogram(self.edges, self.counts, self.count, seed)


def _stream(m: np.ndarray, samples: int, seed: int, order: int = 1, bins: int = 0) -> _Tally:
    """The one sampling loop: every batch of f (or f**2) goes into one tally,
    binned, when ``bins`` is given, over :func:`_outer_range`."""
    value_range = None
    if bins:
        m = as_matrix(m)
        value_range = _outer_range(m, bins)
    tally = _Tally(bins, value_range)
    for f in _fidelity_batches(m, samples, seed):
        if order == 2:
            np.square(f, out=f)
        tally.add(f)
    return tally


def mc_moment(m: np.ndarray, order: int, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the Haar average of |<psi|m|psi>|^(2*order)."""
    if order not in (1, 2):
        raise ConfigError("order must be 1 or 2")
    if samples < 100:
        raise ConfigError(f"samples must be at least 100, got {samples}")
    return _stream(m, samples, seed, order).estimate(seed)


def mc_sample(m: np.ndarray, bins: int, samples: int, seed: int) -> tuple[Histogram, McEstimate]:
    """Histogram of sampled fidelities f = |<psi|m|psi>|^2 and
    ``mc_moment(m, 1, ...)``, from one draw of the states.

    The histogram's range is an outer bound on f from the numerical range of
    ``m``, known before the first draw, so no sample is kept; its edges hold
    every f but may lie outside the law's support.
    """
    if bins < 2:
        raise ConfigError(f"bins must be at least 2, got {bins}")
    if samples < bins:
        raise ConfigError(f"samples ({samples}) must be at least bins ({bins})")
    if samples < 100:
        raise ConfigError(f"samples must be at least 100, got {samples}")
    tally = _stream(m, samples, seed, bins=bins)
    return tally.histogram(seed), tally.estimate(seed)
