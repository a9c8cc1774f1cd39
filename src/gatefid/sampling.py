"""Haar-uniform pure states, Monte-Carlo fidelity estimates, sphere integrals.

States are sampled by normalizing standard complex Gaussian vectors, which is
Haar-uniform on the unit sphere of C^n for every n. Every seeded Monte-Carlo
path draws from one stream, :func:`state_batches`, and is deterministic for a
fixed ``(seed, samples, workers)`` triple: worker streams are derived from the
seed with ``numpy.random.SeedSequence`` and evaluated in a fixed order (workers
only partition the stream, they do not run concurrently here). ``mc_sample``
takes its estimate and its histogram from the same draws. The states a seed
draws are pinned bit for bit; ``f`` may differ from earlier versions in the
last bits, since :func:`expectation` is one matrix product plus a row-wise dot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .linalg import as_matrix

DEFAULT_WORKERS = 1
_BATCH = 1 << 16


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
) -> Iterator[np.ndarray]:
    """Yield ``samples`` Haar states on C^n in batches: worker ``w`` draws its
    share of the budget from the ``w``-th child of ``SeedSequence(seed)``."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    base, extra = divmod(samples, workers)
    for w, child in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        rng = np.random.default_rng(child)
        size = base + (1 if w < extra else 0)
        for done in range(0, size, _BATCH):
            yield sample_states(n, min(_BATCH, size - done), rng)


def expectation(states: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<psi|a|psi> for every row psi of ``states``."""
    return np.einsum("bj,bj->b", states.conj() @ a, states)


def _fidelities(m: np.ndarray, samples: int, seed: int, workers: int) -> np.ndarray:
    """All ``samples`` values of f = |<psi|m|psi>|^2, in seed order."""
    m = as_matrix(m)
    f = np.empty(samples)
    done = 0
    for states in state_batches(m.shape[0], samples, seed, workers):
        np.abs(expectation(states, m), out=f[done : done + len(states)])
        done += len(states)
    return np.square(f, out=f)


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    """Two-pass mean and standard error of ``values``."""
    std_error = values.std(ddof=1) / np.sqrt(values.size)
    return McEstimate(float(values.mean()), float(std_error), values.size, seed)


def _check_bins(bins: int, samples: int) -> None:
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if samples < bins:
        raise ValueError("samples must be at least bins")


def _histogram(
    f: np.ndarray, bins: int, seed: int, value_range: tuple[float, float] | None
) -> Histogram:
    """Bin ``f``; with a given range, edge values in ``f`` are clamped in place."""
    if value_range is None:
        lo, hi = float(f.min()), float(f.max())
        min_width = bins * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
        if hi - lo < min_width:
            # Constant fidelity up to rounding (e.g. the identity map): park
            # all mass in the top bin by opening a range just below it.
            lo = hi - 1e-9 * max(1.0, abs(hi))
        value_range = (lo, hi)
    else:
        # Keep boundary rounding dust (f = support edge +- ~1e-15) in range;
        # anything further out is genuinely outside and stays dropped.
        lo, hi = value_range
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        gap = np.empty_like(f)
        for edge in (lo, hi):
            f[np.abs(np.subtract(f, edge, out=gap), out=gap) <= slack] = edge
    counts, edges = np.histogram(f, bins=bins, range=value_range)
    return Histogram(edges=edges, counts=counts, samples=f.size, seed=seed)


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
    f = _fidelities(m, samples, seed, workers)
    f **= order  # in place; for order 2 this is np.square, i.e. f * f
    return _estimate(f, seed)


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
    return _histogram(_fidelities(m, samples, seed, workers), bins, seed, value_range)


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
    f = _fidelities(m, samples, seed, workers)
    est = _estimate(f, seed)  # before _histogram clamps edge values in f
    return _histogram(f, bins, seed, value_range), est
