"""Haar-uniform pure states, Monte-Carlo fidelity estimates, sphere integrals.

States are sampled by normalizing standard complex Gaussian vectors, which is
Haar-uniform on the unit sphere of C^n for every n. Every seeded Monte-Carlo
path draws from one stream, :func:`state_batches`, and is deterministic for a
fixed ``(seed, samples, workers)`` triple: worker streams are derived from the
seed with ``numpy.random.SeedSequence`` and evaluated in a fixed order (workers
only partition the stream, they do not run concurrently here). The stream
yields unnormalized Gaussian rows ``v``; the kernel takes
``f = (|<v|m|v>| / |v|^2)^2``. The states ``v / |v|`` a seed draws are pinned
bit for bit; ``f`` may differ from earlier versions in the last bits.

``mc_moment``, ``mc_histogram`` and ``mc_sample`` make one streaming pass over
those batches into one tally: running moments and, for a known range, bin
counts, so their memory does not grow with the sample count. The one O(N)
buffer left is a histogram over the observed range, whose edges need every
value. ``mc_sample`` takes its estimate and its histogram from the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Iterator, Sequence

import numpy as np

from .linalg import as_matrix

DEFAULT_WORKERS = 1
_BATCH = 1 << 14


def sample_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-uniform pure state on the unit sphere of C^n."""
    if n < 1:
        raise ValueError("state dimension must be at least 1")
    while True:
        z = rng.standard_normal(2 * n)
        v = z[0::2] + 1j * z[1::2]
        norm = np.linalg.norm(v)
        if norm > 1e-150:
            return v / norm


def sample_states(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-uniform states, stacked as rows of shape (count, n)."""
    if n < 1:
        raise ValueError("state dimension must be at least 1")
    # Consecutive normals (re, im) pair up exactly as in ``sample_state``.
    v = rng.standard_normal((count, 2 * n)).view(np.complex128)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    bad = norms[:, 0] <= 1e-150
    for i in np.flatnonzero(bad):
        v[i] = sample_state(n, rng)
        norms[i, 0] = 1.0
    v /= norms
    return v


def _gaussian_rows(
    n: int, rng: np.random.Generator, z: np.ndarray, r2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill ``z`` (shape (count, 2n)) with the normals whose complex view ``v``
    :func:`sample_states` normalizes, with the same fallback, and ``r2`` with
    ``|v|^2`` as a row sum of squares: cheaper than the ``np.linalg.norm``
    whose bits :func:`sample_states` keeps."""
    rng.standard_normal(out=z)
    np.einsum("ij,ij->i", z, z, out=r2)
    v = z.view(np.complex128)
    for i in np.flatnonzero(r2 <= 1e-300):
        v[i] = sample_state(n, rng)
        r2[i] = 1.0
    return v, r2


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


def monomial_integral(k: Sequence[int], n: int) -> float:
    """Exact monomial sphere integral, converted to float at the end."""
    return float(monomial_integral_exact(k, n))


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


def state_batches(
    n: int, samples: int, seed: int, workers: int = DEFAULT_WORKERS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``samples`` Gaussian rows on C^n with their squared norms, in
    batches: worker ``w`` draws its share of the budget from the ``w``-th
    child of ``SeedSequence(seed)``. Row ``v`` stands for the state ``v / |v|``.

    Every batch is drawn into the same two arrays, so a batch is only valid
    until the next one is requested.
    """
    rows = min(_BATCH, samples)
    return _draw_batches(n, samples, seed, workers, np.empty((rows, 2 * n)), np.empty(rows))


def _draw_batches(
    n: int, samples: int, seed: int, workers: int, z: np.ndarray, r2: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`state_batches` drawing into the caller's ``z`` and ``r2``."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    base, extra = divmod(samples, workers)
    for w, child in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        rng = np.random.default_rng(child)
        size = base + (1 if w < extra else 0)
        for done in range(0, size, _BATCH):
            count = min(_BATCH, size - done)
            yield _gaussian_rows(n, rng, z[:count], r2[:count])


def expectation(states: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<psi|a|psi> for every row psi of ``states``."""
    return np.einsum("bj,bj->b", states.conj() @ a, states)


def _fidelity_batches(
    m: np.ndarray, samples: int, seed: int, workers: int
) -> Iterator[np.ndarray]:
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
    for v, r2 in _draw_batches(n, samples, seed, workers, z, norm2):
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


def _check_bins(bins: int, samples: int) -> None:
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if samples < bins:
        raise ValueError("samples must be at least bins")


class _Tally:
    """What one pass over the value batches keeps.

    Moments (unless ``moments`` is off, as for a histogram alone): each batch's
    two-pass ``(count, mean, M2)`` is merged into the running one by the
    pairwise update of Chan, Golub & LeVeque (Amer. Stat. 37, 1983).
    Histogram (when ``bins`` is given): with a known range, each batch is
    clamped and its bin counts added; with the observed range, the
    batches are copied into one buffer of ``samples`` values and binned at the
    end, since exact [min, max] edges need every value.
    """

    def __init__(
        self,
        samples: int,
        bins: int = 0,
        value_range: tuple[float, float] | None = None,
        moments: bool = True,
    ):
        self.count, self.mean, self.m2, self.moments = 0, 0.0, 0.0, moments
        self.bins, self.range = bins, value_range
        self.counts, self.edges = np.zeros(bins, dtype=np.intp), None
        self.buffer = np.empty(samples) if bins and value_range is None else None
        self.work = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        """Take one batch; with a known range, its edge values are clamped in place."""
        if self.work.size < x.size:
            self.work = np.empty(x.size)
        tmp = self.work[: x.size]
        count = self.count + x.size
        if self.moments:
            # The moments come first, so the estimate never sees the clamp.
            mean = float(x.mean())
            np.square(np.subtract(x, mean, out=tmp), out=tmp)
            delta = mean - self.mean
            self.mean += delta * (x.size / count)
            self.m2 += float(tmp.sum()) + delta * delta * (self.count * x.size / count)
        if self.buffer is not None:
            self.buffer[self.count : count] = x
        elif self.bins:
            # Keep boundary rounding dust (f = support edge +- ~1e-15) in range;
            # anything further out is genuinely outside and stays dropped.
            lo, hi = self.range
            slack = 1e-9 * max(1.0, abs(lo), abs(hi))
            for edge in (lo, hi):
                x[np.abs(np.subtract(x, edge, out=tmp), out=tmp) <= slack] = edge
            counts, self.edges = np.histogram(x, self.bins, self.range)
            self.counts += counts
        self.count = count

    def estimate(self, seed: int) -> McEstimate:
        std_error = sqrt(self.m2 / (self.count - 1)) / sqrt(self.count)
        return McEstimate(self.mean, std_error, self.count, seed)

    def histogram(self, seed: int) -> Histogram:
        if self.buffer is None:
            return Histogram(self.edges, self.counts, self.count, seed)
        lo, hi = float(self.buffer.min()), float(self.buffer.max())
        min_width = self.bins * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
        if hi - lo < min_width:
            # Constant fidelity up to rounding (e.g. the identity map): park
            # all mass in the top bin by opening a range just below it.
            lo = hi - 1e-9 * max(1.0, abs(hi))
        counts, edges = np.histogram(self.buffer, self.bins, (lo, hi))
        return Histogram(edges, counts, self.count, seed)


def _stream(
    m: np.ndarray,
    samples: int,
    seed: int,
    workers: int,
    order: int = 1,
    bins: int = 0,
    value_range: tuple[float, float] | None = None,
    moments: bool = True,
) -> _Tally:
    """The one sampling loop: every batch of f (or f**2) goes into one tally."""
    tally = _Tally(samples, bins, value_range, moments)
    for f in _fidelity_batches(m, samples, seed, workers):
        if order == 2:
            np.square(f, out=f)
        tally.add(f)
    return tally


def mc_moment(
    m: np.ndarray,
    order: int,
    samples: int,
    seed: int,
    workers: int = DEFAULT_WORKERS,
) -> McEstimate:
    """Monte-Carlo estimate of the Haar average of |<psi|m|psi>|^(2*order)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if samples < 100:
        raise ValueError("samples must be at least 100")
    return _stream(m, samples, seed, workers, order).estimate(seed)


def mc_histogram(
    m: np.ndarray,
    bins: int,
    samples: int,
    seed: int,
    workers: int = DEFAULT_WORKERS,
    value_range: tuple[float, float] | None = None,
) -> Histogram:
    """Histogram of sampled fidelities f = |<psi|m|psi>|^2.

    ``value_range`` defaults to the observed [min, max]; pass the analytic
    support when comparing against a closed-form density so bins align with
    the support endpoints.
    """
    _check_bins(bins, samples)
    tally = _stream(m, samples, seed, workers, bins=bins, value_range=value_range, moments=False)
    return tally.histogram(seed)


def mc_sample(
    m: np.ndarray,
    bins: int,
    samples: int,
    seed: int,
    workers: int = DEFAULT_WORKERS,
    value_range: tuple[float, float] | None = None,
) -> tuple[Histogram, McEstimate]:
    """``mc_histogram`` and ``mc_moment(m, 1, ...)`` from one draw of the states."""
    _check_bins(bins, samples)
    if samples < 100:
        raise ValueError("samples must be at least 100")
    tally = _stream(m, samples, seed, workers, bins=bins, value_range=value_range)
    return tally.histogram(seed), tally.estimate(seed)
