"""Haar-uniform pure states, Monte-Carlo fidelity estimates, sphere integrals.

States are sampled by normalizing standard complex Gaussian vectors, which is
Haar-uniform on the unit sphere of C^n for every n. Every seeded Monte-Carlo
path draws from one stream, :func:`state_batches`, and is deterministic for a
fixed ``(seed, samples)`` pair. The stream yields unnormalized Gaussian rows
``v``; every overlap ``|<v|a|v>| / |v|^2``, ``verify``'s included, comes from
one kernel, and f is its square. The states ``v / |v|`` a seed draws are
pinned bit for bit; ``f`` may differ from earlier versions in the last bits.
A lone stream (``mc_moment``, ``mc_sample``, :func:`state_batches`) draws its
next batch on one worker thread, into a second buffer, while the caller works
on the current one. ``verify``'s independent streams run two at a time in the
lanes of :func:`_lanes` instead: each lane draws and tallies its streams
inline, on its own thread. Either way one thread advances a stream's
generator, in draw order, so a seed draws the same states as on one thread.

``mc_moment`` and ``mc_sample`` make one streaming pass over those batches
into one tally: running moments and bin counts, so their memory does not grow
with the sample count. A histogram's range is fixed before the first draw: an
outer bound on f from the map's numerical range. ``mc_sample`` takes its
estimate and its histogram from the same draws. A bad bin or sample count
raises :class:`~gatefid.linalg.ConfigError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import cos, factorial, frexp, ldexp, pi, sqrt, ulp
from typing import Iterator, Sequence

import numpy as np

from .linalg import ConfigError, _pow2_exponent, as_matrix

_BATCH = 1 << 14
_ANGLES = 64
_ZOOMS = 5
EDGE_SLACK = 1e-9  # of max(|lo|, |hi|): rounding outside a histogram range


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
        # samples * width at an exact power-of-two scale: no overflow for bins near 1e308.
        e = frexp(float(self.widths.max()))[1]
        return np.ldexp(self.counts / (self.samples * np.ldexp(self.widths, -e)), -e)


def state_batches(n: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``samples`` Gaussian rows on C^n with their squared norms, in
    batches. Row ``v`` stands for the state ``v / |v|``.

    This is the lone stream: batches alternate between two pairs of arrays,
    and a worker thread draws the next batch while the caller holds this
    one, so a batch is only valid until the next one is requested. A lane of
    :func:`_lanes` draws the same rows inline into one pair instead.
    """
    rows = min(_BATCH, samples)
    pairs = [(np.empty((rows, 2 * n)), np.empty(rows)) for _ in range(2)]
    return _ahead(_draws(samples, seed, pairs))


def _draws(
    samples: int, seed: int, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one owner of a stream's generator: batch k of its ``samples`` rows
    is drawn into ``pairs[k % len(pairs)]`` on whichever thread asks for it.

    Batches are drawn one after another, redraws included, so a seed draws
    the same rows on any thread.
    """
    # The seed's first SeedSequence child rather than the seed itself, so
    # that every seed keeps the states it has always drawn.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for k, done in enumerate(range(0, samples, _BATCH)):
        count = min(_BATCH, samples - done)
        z, r2 = pairs[k % len(pairs)]
        yield _gaussian_rows(rng, z[:count], r2[:count])


def _ahead(items: Iterator) -> Iterator:
    """``items``, each taken on one worker thread while the caller holds the
    one before it.

    Only the worker advances ``items``. Item k+1 is asked for before item k
    is waited on, so the worker goes from one to the next without waiting
    for the caller to wake. Closing the iterator, or dropping it, joins the
    worker; an error the worker meets is raised here.
    """
    # Imported here rather than at the top: it takes about 5 ms, which the
    # commands that draw no states need not pay at start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(next, items, None)
        while True:
            following = worker.submit(next, items, None)
            if (item := pending.result()) is None:
                return
            yield item
            pending = following


def _workspace_size(rows: int, n: int, k: int, pairs: int) -> int:
    """Floats in :func:`_carve`'s workspace."""
    return rows * ((2 * n + 1) * pairs + 4 * n + 2 + k)


def _carve(block: np.ndarray, rows: int, n: int, k: int, pairs: int):
    """``pairs`` ``(z, r2)`` pairs for batches of ``rows`` rows on C^n, and
    the kernel's buffers for ``k`` operators, as views of the flat ``block``.

    Every per-batch array of a stream is a view of one workspace. As separate
    arrays, freed at the end of each stream, the allocator handed them back
    to the system and the next stream page-faulted them in again. The blocks
    viewed as complex come first, so each starts on an even float.
    """
    sizes = [2 * n] * pairs + [2 * n, 2 * n, 2] + [1] * pairs + [k]
    work = np.split(block[: _workspace_size(rows, n, k, pairs)], rows * np.cumsum(sizes[:-1]))
    z, (conj, prod, overlap), r2 = work[:pairs], work[pairs : pairs + 3], work[pairs + 3 : -1]
    drawn = [(zi.reshape(rows, 2 * n), ri) for zi, ri in zip(z, r2)]
    conj, prod = (b.view(complex).reshape(rows, n) for b in (conj, prod))
    return drawn, (conj, prod, overlap.view(complex), work[-1].reshape(k, rows))


def _overlaps(ops, samples: int, seed: int) -> Iterator[np.ndarray]:
    """:func:`_kernel` over the lone stream of ``(samples, seed)``, in a
    workspace of its own: the overlaps of the (k, n, n) stack ``ops`` with
    each batch, as a (k, rows) array that the next batch overwrites."""
    ops = np.asarray(ops, dtype=np.complex128)
    k, n = ops.shape[:2]
    rows = min(_BATCH, samples)
    pairs, buffers = _carve(np.empty(_workspace_size(rows, n, k, 2)), rows, n, k, 2)
    return _kernel(ops, _ahead(_draws(samples, seed, pairs)), buffers)


def _kernel(ops: np.ndarray, batches, buffers) -> Iterator[np.ndarray]:
    """The one overlap kernel: |<v|a|v>| / |v|^2 for each operator a of the
    (k, n, n) stack ``ops`` and each row v of each ``(v, r2)`` batch, into
    the ``buffers`` of :func:`_carve`."""
    conj, prod, overlap, out = buffers
    for v, r2 in batches:
        count = len(v)
        q = out[:, :count]
        # A decorator would not cover a generator's body, so the state is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            np.conjugate(v, out=conj[:count])
            for a, row in zip(ops, q):  # one at a time: a batched matmul ran slower
                np.matmul(conj[:count], a, out=prod[:count])
                np.abs(np.einsum("bj,bj->b", prod[:count], v, out=overlap[:count]), out=row)
                row /= r2
        yield q


def _lanes(jobs: Sequence[tuple]) -> list:
    """Run independent stream jobs two at a time; their results in job order.

    A job ``(ops, samples, seed, reduce, *args)`` gives
    ``reduce(overlaps, *args)``, with ``overlaps`` the batches that
    ``_overlaps(ops, samples, seed)`` yields, so its result keeps the bits of
    the lone stream. Two lanes, the caller's thread and one worker, each take
    the next job not yet taken and draw its batches inline, with no
    draw-ahead, into one ``(z, r2)`` pair and kernel buffers that it reuses
    for every job. Both workspaces are allocated here, on the caller's
    thread: allocated in the worker, glibc's per-thread arena kept them.

    A lane runs private code only: perfbench's tracer wraps public gatefid
    functions with one span stack, which is not thread-safe, so ``ops`` is
    built by the caller and ``reduce`` is private. Once a job raises, no
    lane starts another, and the first error in job order is raised when
    both have stopped.
    """
    if not jobs:
        return []
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(np.asarray(ops, dtype=np.complex128), *rest) for ops, *rest in jobs]
    size = max(_workspace_size(min(_BATCH, j[1]), j[0].shape[1], len(j[0]), 1) for j in jobs)
    blocks = [np.empty(size) for _ in jobs[:2]]
    outcomes = [None] * len(jobs)
    todo, lock = iter(range(len(jobs))), threading.Lock()
    with ThreadPoolExecutor(1) as worker:
        others = [worker.submit(_lane, jobs, block, todo, lock, outcomes) for block in blocks[1:]]
        _lane(jobs, blocks[0], todo, lock, outcomes)
    for lane in others:
        lane.result()
    for ok, value in filter(None, outcomes):
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _lane(jobs, block: np.ndarray, todo: Iterator[int], lock, outcomes: list) -> None:
    """One lane of :func:`_lanes`: run the jobs it takes from ``todo`` in
    ``block``, and store each ``(True, result)`` or ``(False, error)``."""
    while True:
        with lock:
            i = next(todo, None)
        if i is None:
            return
        try:
            ops, samples, seed, reduce, *args = jobs[i]
            pairs, buffers = _carve(block, min(_BATCH, samples), ops.shape[1], len(ops), 1)
            outcomes[i] = True, reduce(_kernel(ops, _draws(samples, seed, pairs), buffers), *args)
        except BaseException as exc:
            outcomes[i] = False, exc
            with lock:
                for _ in todo:  # no lane starts another job
                    pass


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
    few ulps. Rounding is left to the :data:`EDGE_SLACK` of :class:`_Tally`,
    far above the eigensolver's error of 8 n eps ||m||_F (2e-13 of ||m||_2 at
    n=5). A range under ``bins`` ulps (c I) is opened that slack below its top,
    so all the mass lands in the top bin. One whose bins would be narrower
    than the least normal float, where densities overflow (the zero map, f
    near 1e-308), is opened 1e-9 below it. Every other decision is relative:
    2^k m gets 4^k times the edges of m.
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
    if hi - lo <= bins * ulp(hi):
        lo = hi - EDGE_SLACK * hi
    if hi - lo < bins * np.finfo(float).tiny:
        lo = hi - EDGE_SLACK
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
    Histogram (when ``bins`` is given, over ``value_range``): a value beyond
    its :data:`EDGE_SLACK` raises ``ValueError``; the rest are clipped and counted.
    """

    def __init__(self, bins: int, value_range: tuple[float, float] | None):
        self.count, self.mean, self.m2 = 0, 0.0, 0.0
        self.exponent = None  # of the moments' scale 2^e
        self.bins, self.range = bins, value_range
        self.counts, self.edges = np.zeros(bins, dtype=np.intp), None
        self.work = np.empty(0)

    def add(self, x: np.ndarray) -> None:
        """Take one batch; values outside the range are clipped in place."""
        if self.work.size < x.size:
            self.work = np.empty(x.size)
        tmp = self.work[: x.size]
        count = self.count + x.size
        # The moments come first, so the estimate never sees the clip.
        if self.exponent is None:
            self.exponent = _pow2_exponent(float(x.max()))
        np.multiply(x, ldexp(1.0, -self.exponent), out=tmp)
        mean = float(tmp.mean())
        np.square(np.subtract(tmp, mean, out=tmp), out=tmp)
        delta = mean - self.mean
        self.mean += delta * (x.size / count)
        self.m2 += float(tmp.sum()) + delta * delta * (self.count * x.size / count)
        if self.bins:
            lo, hi = self.range
            slack = EDGE_SLACK * max(abs(lo), abs(hi))
            low, high = float(x.min()), float(x.max())
            if low < lo - slack or high > hi + slack:
                raise ValueError(f"sampled f in [{low!r}, {high!r}] leaves the histogram range [{lo!r}, {hi!r}]")
            counts, self.edges = np.histogram(np.clip(x, lo, hi, out=x), self.bins, self.range)
            self.counts += counts
        self.count = count

    def estimate(self, seed: int) -> McEstimate:
        scale = ldexp(1.0, self.exponent)
        std_error = sqrt(self.m2 / (self.count - 1)) / sqrt(self.count)
        return McEstimate(self.mean * scale, std_error * scale, self.count, seed)

    def histogram(self, seed: int) -> Histogram:
        return Histogram(self.edges, self.counts, self.count, seed)


def _fold(overlaps, order: int, bins: int = 0, value_range=None) -> _Tally:
    """The one sampling loop: f (or f^2) of every batch of ``overlaps`` is
    checked and goes into one tally, binned when ``bins`` is given."""
    tally = _Tally(bins, value_range)
    for (f,) in overlaps:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(order):
                np.square(f, out=f)
        if not np.isfinite(f.max()):  # max propagates NaN
            raise ValueError("sampled fidelity overflows: the map's entries are too large")
        tally.add(f)
    tally.work = np.empty(0)  # a tally kept after its stream keeps no batch-sized scratch
    return tally


def _moment_ops(m: np.ndarray, order: int, samples: int) -> np.ndarray:
    """The checked (1, n, n) stack of ``m`` for an order-``order`` stream."""
    if order not in (1, 2):
        raise ConfigError("order must be 1 or 2")
    if samples < 100:
        raise ConfigError(f"samples must be at least 100, got {samples}")
    return as_matrix(m)[None]


def mc_moment(m: np.ndarray, order: int, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the Haar average of |<psi|m|psi>|^(2*order)."""
    ops = _moment_ops(m, order, samples)
    return _fold(_overlaps(ops, samples, seed), order).estimate(seed)


def _mc_moments(streams: Sequence[tuple[np.ndarray, int, int, int]]) -> list[McEstimate]:
    """``mc_moment(m, order, samples, seed)`` for each tuple, the streams run
    in :func:`_lanes`; each estimate keeps its bits."""
    jobs = [
        (_moment_ops(m, order, samples), samples, seed, _fold, order)
        for m, order, samples, seed in streams
    ]
    return [tally.estimate(seed) for tally, (*_, seed) in zip(_lanes(jobs), streams)]


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
    ops = _moment_ops(m, 1, samples)
    tally = _fold(_overlaps(ops, samples, seed), 1, bins, _outer_range(ops[0], bins))
    return tally.histogram(seed), tally.estimate(seed)
