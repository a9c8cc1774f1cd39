"""Haar-uniform pure states, Monte-Carlo fidelity estimates, sphere integrals.

Every seeded Monte-Carlo path draws from one stream per seed, cut into
batches of ``_BATCH`` rows, and is deterministic for a fixed ``(seed,
samples)`` pair. Batch k of a stream has a generator of its own, seeded
from the seed and k alone (:func:`_draws`), so any thread can draw any
batch. A stream comes in one of two batch forms, chosen once per job from
the operators' dimension n (:func:`_form`). For n != 2 the rows are
standard complex Gaussian vectors ``v``, Haar-uniform once normalized, and
each overlap is ``|<v|a|v>| / |v|^2``. A qubit state is a point r of the
Bloch sphere, Haar-uniform when r is uniform on S^2, so for n = 2 the rows
are Bloch vectors drawn by Marsaglia's rule (:func:`_bloch_rows`), and each
overlap is ``|t_a + c_a.r|``, affine in r.
Either way every overlap, ``verify``'s included, comes from one kernel
(:func:`_kernel`), and f is its square. The states a seed draws are pinned
bit for bit; ``f`` may differ from earlier versions in the last bits.

Every stream is a job of one runner, :func:`_lanes`, which starts one worker
thread. The caller's thread and the worker take the batches of every job,
in job order, and each reduces its batch into a partial tally. Each
job's partials are merged in batch order as they come in, so a result is
the same bits as on one thread, however the two were timed. While
the runner runs, numpy's bundled OpenBLAS keeps to one thread
(:func:`_one_blas_thread`): left on every core, it runs each batch's small
matrix product on both and spins between them on the core the worker needs.
Where numpy links another BLAS, nothing is capped.

``mc_moment`` and ``mc_sample`` reduce those batches into one tally: moments
and bin counts, with no sample kept, so their memory does not grow with the
sample count. A histogram's range and edges are fixed before the first draw:
an outer bound on f from the map's numerical range. ``mc_sample`` takes its
estimate and its histogram from the same draws. A bad bin or sample count,
or a negative seed, raises :class:`~gatefid.linalg.ConfigError`.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import cos, factorial, frexp, isfinite, ldexp, pi, sqrt, ulp
from typing import Iterator, Sequence

import numpy as np

from .linalg import ConfigError, _pow2_exponent, as_matrix

_BATCH = 1 << 14
_ANGLES = 64
_ZOOMS = 5
EDGE_SLACK = 1e-9  # of max(|lo|, |hi|): rounding outside a histogram range
MIN_EXPECTED_COUNT = 5.0  # the least expected count of a bin the fit compares


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


def _bloch_rows(rng: np.random.Generator, r: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, None]:
    """Fill ``r`` (shape (count, 3), each column contiguous) with points
    uniform on the sphere S^2 by Marsaglia's rule (Ann. Math. Statist. 43,
    645, 1972), with ``scratch`` (12 floats a row of ``r``) for the
    candidates. While r lacks d rows, m = d + d // 3 + 1 pairs (x, y)
    uniform in [-1, 1)^2 are drawn, m uniforms for the x and then m for the
    y; the first with s = x^2 + y^2 < 1, up to d and in order, give
    r = (2x sqrt(1 - s), 2y sqrt(1 - s), 1 - 2s). pi/4 of them are kept, so
    a full batch is short after one block only 12 standard deviations out.
    Each step runs over a whole block; numpy's index of the kept pairs is
    the one array allocated. A Bloch vector has no norm to return: None."""
    x, y, z = r.T
    flat = scratch.reshape(-1)
    done = 0
    while done < len(r):
        need = len(r) - done
        m = need + need // 3 + 1
        u, s, w = flat[: 2 * m].reshape(2, m), flat[2 * m : 3 * m], flat[3 * m : 4 * m]
        keep = flat[4 * m : 4 * m + -(-m // 8)].view(bool)[:m]
        # At half scale, exactly: u - 1/2 = x / 2, and s / 4 is tested against 1/4.
        rng.random(out=u)
        u -= 0.5
        np.multiply(u[0], u[0], out=s)
        s += np.multiply(u[1], u[1], out=w)
        kept = np.flatnonzero(np.less(s, 0.25, out=keep))[:need]
        rows = slice(done, done + len(kept))
        for source, target in ((u[0], x), (u[1], y), (s, z)):
            np.take(source, kept, out=target[rows], mode="clip")  # "clip": no buffered copy
        xy, rz, w = r.T[:2, rows], z[rows], w[: len(kept)]
        np.sqrt(np.subtract(0.25, rz, out=w), out=w)  # rz holds s / 4 here
        w *= 8.0
        np.multiply(xy, w, out=xy)
        rz *= -8.0
        rz += 1.0
        done += len(kept)
    return r, None


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


@dataclass(frozen=True)
class HistogramComparison:
    """Goodness-of-fit of a sampled histogram against a closed-form law."""

    sup_norm_density_gap: float
    chi_square: float
    dof: int
    bins_compared: int
    max_pull: float  # largest |count - expected| / sqrt(expected) of the compared bins

    def __post_init__(self):
        if self.sup_norm_density_gap < 0 or self.chi_square < 0 or self.max_pull < 0:
            raise ValueError("gaps must be non-negative")


def _draws(samples: int, seed: int | tuple, k: int, fill, *buffers) -> tuple:
    """The one owner of a stream's batches and their generators: batch k of
    the stream of ``samples`` rows at ``seed``, drawn by ``fill`` into the
    first rows of its ``buffers`` (the draw of :func:`_carve`) on whichever
    thread asks for it, as the pair ``(x, r2)``: Gaussian rows and their
    squared norms, or Bloch vectors and None.

    Batch k has a generator of its own, ``SFC64`` seeded by the child of the
    seed's ``SeedSequence`` with ``spawn_key`` (0, k), which is the k-th
    child of ``SeedSequence(seed).spawn(1)[0]``. So a batch draws the same
    rows, redraws and top-ups included, whichever batches were drawn before
    it and on whichever thread.
    """
    count = min(_BATCH, samples - k * _BATCH)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, k))))
    return fill(rng, *(b[:count] for b in buffers))


@cache
def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, found
    on the first stream (about 0.15 ms; a command that draws nothing does
    not look), or None where numpy links a BLAS without them."""
    import ctypes

    try:  # dlsym on numpy's core extension also searches the libraries it links
        lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (KeyError, AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread while the block runs, entered on the caller's
    thread before the runner's worker starts. A count already at one (inside
    another run's cap, or set so by the user) is left alone, as is a BLAS
    that :func:`_blas_threads` does not find."""
    found = _blas_threads()
    old = found[0]() if found else 1
    if old != 1:
        found[1](1)
    try:
        yield
    finally:
        if old != 1:
            found[1](old)


def _workspace_size(rows: int, n: int, k: int) -> int:
    """Floats in :func:`_carve`'s workspace."""
    return rows * (6 * n + 4 + k)


def _form(ops: np.ndarray):
    """The batch form of a job on the (k, n, n) stack ``ops``, chosen here
    alone, once per job, from n: None for Gaussian rows, or for n = 2 the
    overlaps' affine form in the Bloch vector r, ``(coef, shift, scale)``.

    With rho = (I + r.sigma) / 2, <psi|a|psi> = t + c.r for t = Tr a / 2 and
    c = ((a01 + a10) / 2, i (a01 - a10) / 2, (a00 - a11) / 2), as in
    ``linalg.eig2_normal``. ``coef`` holds the rows Re c and Im c of each
    operator in turn, ``shift`` Re t and Im t beside them, both of a taken
    at 2^-e times, 2^e near its largest entry, and ``scale`` the column of
    2^e. So no square the kernel takes under- or overflows, and 2^j a gets
    exactly 2^j times the moduli of a.
    """
    if ops.shape[1] != 2:
        return None
    big = np.maximum(np.abs(ops.real), np.abs(ops.imag)).max(axis=(1, 2))
    e = np.array([_pow2_exponent(b) for b in big.tolist()])
    # An operator that overflowed to inf gets NaN terms, and its tally raises.
    with np.errstate(invalid="ignore"):
        a00, a01, a10, a11 = (ops * np.ldexp(1.0, -e)[:, None, None]).reshape(-1, 4).T
        terms = 0.5 * np.stack([a00 + a11, a01 + a10, 1j * (a01 - a10), a00 - a11], axis=1)
    rows = np.stack([terms.real, terms.imag], axis=1).reshape(-1, 4)
    return rows[:, 1:], rows[:, :1], np.ldexp(1.0, e)[:, None]


def _carve(block: np.ndarray, rows: int, n: int, k: int, form):
    """The draw (a filler and its buffers, for :func:`_draws`) for batches of
    ``rows`` rows on C^n in the batch ``form`` of :func:`_form`, the
    kernel's buffers for ``k`` operators and a scratch row for the tallies,
    as views of the flat ``block``.

    Every per-batch array of a lane, the tallies' scratch included, is a
    view of one workspace, so a lane allocates nothing batch-sized. As
    separate arrays, freed at the end of each stream, the allocator handed
    them back to the system and the next stream page-faulted them in again.
    Gaussian rows: the blocks viewed as complex come first, so each starts on
    an even float. Bloch vectors need less: r, held by columns, and 6n
    floats a row shared by the draw's candidates and the kernel's products.
    """
    size = _workspace_size(rows, n, k)
    if form is not None:
        r, shared, work, out = np.split(block[:size], rows * np.cumsum([3, 6 * n, 1]))
        draw = (_bloch_rows, r.reshape(3, rows).T, shared.reshape(rows, 6 * n))
        return draw, (shared, out.reshape(k, rows)), work
    sizes = [2 * n, 2 * n, 2 * n, 2, 1, 1, k]
    z, conj, prod, overlap, r2, work, out = np.split(block[:size], rows * np.cumsum(sizes[:-1]))
    conj, prod = (b.view(complex).reshape(rows, n) for b in (conj, prod))
    draw = (_gaussian_rows, z.reshape(rows, 2 * n), r2)
    return draw, (conj, prod, overlap.view(complex), out.reshape(k, rows)), work


def _kernel(ops: np.ndarray, batch: tuple, form, buffers) -> np.ndarray:
    """The one overlap kernel: |<psi|a|psi>| for each operator a of the
    (k, n, n) stack ``ops`` and each state psi of the ``batch`` that
    :func:`_draws` drew in the job's ``form`` (:func:`_form`), as a (k, rows)
    view of the ``buffers`` of :func:`_carve`, which the next batch
    overwrites.

    Gaussian rows, ``batch = (v, r2)``: |<v|a|v>| / |v|^2, operator by
    operator. Bloch vectors, ``batch = (r, None)``: |t_a + c_a.r|, as
    sqrt(re^2 + im^2) at the form's scale, from one real product of the
    form's (2k, 3) coefficients with the (3, rows) block r.T; its 6n floats
    a row hold 3n = 6 operators, so a larger stack takes one product per 6.
    """
    x, r2 = batch
    count = len(x)
    if form is None:
        conj, prod, overlap, out = buffers
        q = out[:, :count]
        with np.errstate(over="ignore", invalid="ignore"):
            np.conjugate(x, out=conj[:count])
            for a, row in zip(ops, q):  # one at a time: a batched matmul ran slower
                np.matmul(conj[:count], a, out=prod[:count])
                np.abs(np.einsum("bj,bj->b", prod[:count], x, out=overlap[:count]), out=row)
                row /= r2
        return q
    coef, shift, scale = form
    shared, out = buffers
    q = out[:, :count]
    step = len(shared) // (2 * out.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf overlap raises in its tally
        for lo in range(0, len(q), step):
            part = q[lo : lo + step]
            p = shared[: 2 * len(part) * count].reshape(-1, count)
            np.matmul(coef[2 * lo : 2 * lo + len(p)], x.T, out=p)
            p += shift[2 * lo : 2 * lo + len(p)]
            np.square(p, out=p)
            np.add(p[0::2], p[1::2], out=part)
        np.sqrt(q, out=q)
        q *= scale
    return q


def _lanes(jobs: Sequence[tuple]) -> list:
    """The one runner of stream jobs: their results, in job order.

    A job ``(ops, samples, seed, step, *args)`` gives, for each batch of the
    stream of ``(samples, seed)``, ``step(q, work, *args)``: the list of
    partial tallies (:meth:`_Tally.partial`) of that batch's :func:`_kernel`
    overlaps ``q`` of ``ops``, with ``work`` a scratch row the size of a
    batch. The job's result is each tally merged over its batches in batch
    order (:class:`_InOrder`).

    Every job is split into its batches, and two lanes, the caller's thread
    and one worker, take ``(job, batch)`` tasks in that order from one
    iterator under a lock. Each lane draws its batch, runs the kernel and
    the step in a workspace of its own, and hands the batch's partials,
    under the lock, to the job's merge, which takes them in batch order as
    they come in. Since each batch has its own generator (:func:`_draws`)
    and the merge order is fixed, a result is the same bits as a one-thread
    pass over the job's batches, however the lanes were timed, and a job
    holds only its running tallies and the few partials that came in before
    an earlier batch's. A lone stream such as ``gatefid sample``'s is shared
    by both lanes. Greedy lanes over tasks of one batch each end at most one
    task apart in any task order (R. L. Graham, SIAM J. Appl. Math. 17,
    1969), so no order is chosen. The workspaces are allocated here, on the
    caller's thread: allocated in the worker, glibc's per-thread arena kept
    them.

    A lane runs private code only: perfbench's tracer wraps public gatefid
    functions with one span stack, which is not thread-safe, so ``ops`` is
    built by the caller and ``step`` is private. A job whose step raises
    ``ValueError`` (a bad setting, an overflow, a sampled f outside its
    histogram range) has as its result the error of its first batch that
    raised one, its later batches are skipped, and the other jobs run on.
    Once a step raises anything else, no lane takes another task, and the
    first such error in job order is raised when both have stopped.
    """
    if not jobs:
        return []
    # Imported here rather than at the top: it takes about 5 ms, which the
    # commands that draw no states need not pay at start-up.
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(np.asarray(ops, dtype=np.complex128), *rest) for ops, *rest in jobs]
    forms = [_form(ops) for ops, *_ in jobs]
    batches = [-(-samples // _BATCH) for _, samples, *_ in jobs]
    merges = [_InOrder() for _ in jobs]
    # Taken under the lock, so a job that failed is seen before its next batch starts.
    tasks = ((i, k) for i, count in enumerate(batches) for k in range(count) if not merges[i].failed)
    size = max(_workspace_size(min(_BATCH, samples), ops.shape[1], len(ops)) for ops, samples, *_ in jobs)
    blocks = [np.empty(size) for _ in range(2 if sum(batches) > 1 else 1)]
    lock = threading.Lock()
    with _one_blas_thread(), ThreadPoolExecutor(1) as worker:
        others = [worker.submit(_lane, jobs, forms, block, tasks, lock, merges) for block in blocks[1:]]
        _lane(jobs, forms, blocks[0], tasks, lock, merges)
    for lane in others:
        lane.result()
    for merge in merges:
        if merge.fault is not None:
            raise merge.fault
    return [merge.result for merge in merges]


def _lane(jobs, forms: list, block: np.ndarray, tasks: Iterator[tuple[int, int]], lock, merges: list) -> None:
    """One lane of :func:`_lanes`: for each ``(job, batch)`` task it takes
    from ``tasks``, draw the batch into ``block`` in the job's form of
    ``forms``, run the kernel and the job's step on it there, and hand the
    step's partials, or the error it raised, to the job's merge in
    ``merges``."""
    shape = None
    while True:
        with lock:
            task = next(tasks, None)
        if task is None:
            return
        i, k = task
        try:
            ops, samples, seed, step, *args = jobs[i]
            batch_shape = (min(_BATCH, samples), ops.shape[1], len(ops))
            if batch_shape != shape:  # the views carved for the last task serve a task of its shape
                shape = batch_shape
                draw, buffers, work = _carve(block, *shape, forms[i])
            part = step(_kernel(ops, _draws(samples, seed, k, *draw), forms[i], buffers), work, *args)
        except BaseException as exc:
            part = exc
        with lock:
            if isinstance(part, BaseException) and not isinstance(part, ValueError):
                for _ in tasks:  # no lane takes another task
                    pass
            merges[i].put(k, part)


class _InOrder:
    """One job's result, merged in batch order from its batches' partials,
    which :meth:`put` takes in any order: the error of its first batch that
    raised one, or else each tally merged over the batches. A partial that
    comes in before an earlier batch's waits in ``early``; a batch after an
    error is dropped. ``failed`` is set by any error, and ``fault`` holds
    the first error that is not a ``ValueError``."""

    def __init__(self):
        self.result, self.next, self.early = None, 0, {}
        self.failed, self.fault = False, None

    def put(self, k: int, part) -> None:
        if isinstance(part, BaseException):
            self.failed = True
            if not isinstance(part, ValueError) and self.fault is None:
                self.fault = part
        self.early[k] = part
        while self.next in self.early:
            part = self.early.pop(self.next)
            if isinstance(self.result, BaseException):
                pass
            elif self.next == 0 or isinstance(part, BaseException):
                self.result = part
            else:
                self.result = [a.merge(b) for a, b in zip(self.result, part)]
            self.next += 1


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
        # Every product below stays finite. Both sides go through 2^-e first,
        # exactly: numpy divides a complex array by a real through its
        # reciprocal, which overflows at a subnormal scale.
        k = ldexp(1.0, -_pow2_exponent(scale))
        a = (m * k) / (scale * k)
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
    """What a pass over value batches keeps: the count, the mean and M2 (the
    sum of squared deviations) of ``x / 2^exponent``, and bin counts when
    binned.

    One batch gives a :meth:`partial`, whose two-pass moments are taken at
    the power-of-two scale of the batch's largest magnitude, so squared
    deviations neither overflow nor underflow where ``x`` is near the ends
    of the float range. :meth:`merge` takes the next batch's partial by the
    pairwise update of Chan, Golub & LeVeque (Amer. Stat. 37, 1983), after
    rescaling it exactly, by a power of two, to the first batch's scale; a
    stream's partials merged in batch order are its tally. A power-of-two
    scale is exact, so the estimate is the same bits as unscaled wherever
    nothing under- or overflows.
    """

    def __init__(self, count: int, mean: float, m2: float, exponent: int, counts=None, edges=None):
        self.count, self.mean, self.m2 = count, mean, m2
        self.exponent = exponent  # of the moments' scale 2^e
        self.counts, self.edges = counts, edges

    @classmethod
    def partial(cls, x: np.ndarray, work: np.ndarray, edges=None):
        """The tally of one batch ``x``, with ``work`` a scratch row of at
        least ``x.size`` floats. A batch with a value that is not finite
        raises ``ValueError``. Binned when histogram ``edges`` are given: a
        value beyond their :data:`EDGE_SLACK` raises ``ValueError``, and the
        rest are clipped in place and counted. The moments come first, so the
        estimate never sees the clip."""
        low, high = float(x.min()), float(x.max())
        if not (isfinite(low) and isfinite(high)):  # min and max propagate NaN
            raise ValueError("sampled fidelity overflows: the map's entries are too large")
        exponent = _pow2_exponent(max(high, -low))  # of the largest magnitude
        tmp = work[: x.size]
        np.multiply(x, ldexp(1.0, -exponent), out=tmp)
        mean = float(tmp.mean())
        m2 = float(np.square(np.subtract(tmp, mean, out=tmp), out=tmp).sum())
        counts = None
        if edges is not None:
            lo, hi = float(edges[0]), float(edges[-1])
            slack = EDGE_SLACK * max(abs(lo), abs(hi))
            if low < lo - slack or high > hi + slack:
                raise ValueError(f"sampled f in [{low!r}, {high!r}] leaves the histogram range [{lo!r}, {hi!r}]")
            # Given as edges, np.histogram bins by comparison with them: each
            # bin holds edges[i] <= x < edges[i + 1], the last its top edge too.
            counts, _ = np.histogram(np.clip(x, lo, hi, out=x), edges)
        return cls(x.size, mean, m2, exponent, counts, edges)

    def merge(self, later: _Tally) -> _Tally:
        """This tally followed by the values of ``later``."""
        shift = later.exponent - self.exponent
        mean, m2 = ldexp(later.mean, shift), ldexp(later.m2, 2 * shift)
        count = self.count + later.count
        delta = mean - self.mean
        counts = None if self.counts is None else self.counts + later.counts
        return _Tally(
            count,
            self.mean + delta * (later.count / count),
            self.m2 + (m2 + delta * delta * (self.count * later.count / count)),
            self.exponent,
            counts,
            self.edges,
        )

    def estimate(self, seed: int) -> McEstimate:
        scale = ldexp(1.0, self.exponent)
        std_error = sqrt(self.m2 / (self.count - 1)) / sqrt(self.count)
        return McEstimate(self.mean * scale, std_error * scale, self.count, seed)

    def histogram(self, seed: int) -> Histogram:
        return Histogram(self.edges, self.counts, self.count, seed)


def _fold(q: np.ndarray, work: np.ndarray, orders, edges=None) -> list:
    """The one sampling step, for one batch: each row of the overlaps ``q``
    gives f, squared further for each higher order of the ascending tuple
    ``orders``; every (row, order) pair is checked and has its own partial
    tally, binned when histogram ``edges`` are given (binning clips f in
    place, so a binned fold takes one order). The result is the list of
    partials, row by row, each row's orders in turn.

    Merged over a stream's batches, a row's tally sees the same values, in
    the same order, as on a stream of its row alone, so it keeps that
    stream's bits: several maps and orders can share one draw of the states
    (common random numbers), and each estimate is still ``mc_moment``'s for
    its own map, order and seed.
    """
    parts = []
    for f in q:
        done = 0
        for order in orders:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(order - done):
                    np.square(f, out=f)
            done = order
            parts.append(_Tally.partial(f, work, edges))
    return parts


def _moment_job(maps, orders: tuple, samples: int, seed: int | tuple) -> tuple:
    """One stream job for every map of ``maps`` (all of one dimension) at
    each of the ascending ``orders``: the list of tallies, map by map, whose
    ``estimate(seed)`` is ``mc_moment(m, order, samples, seed)``, bit for
    bit, for each map m and order in turn. A seed is a non-negative int or
    a tuple of them, the entropy of the stream's ``SeedSequence``."""
    if any(order not in (1, 2) for order in orders):
        raise ConfigError("order must be 1 or 2")
    if samples < 100:
        raise ConfigError(f"samples must be at least 100, got {samples}")
    if np.min(seed) < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    return (np.stack([as_matrix(m) for m in maps]), samples, seed, _fold, tuple(orders))


def _sample_job(m: np.ndarray, bins: int, samples: int, seed: int | tuple) -> tuple:
    """The stream job of ``mc_sample(m, bins, samples, seed)``: one tally
    whose ``histogram(seed)`` and ``estimate(seed)`` are its results. The
    range and its edges are fixed here, before the first draw."""
    if bins < 2:
        raise ConfigError(f"bins must be at least 2, got {bins}")
    if samples < bins:
        raise ConfigError(f"samples ({samples}) must be at least bins ({bins})")
    ops, *rest = _moment_job([m], (1,), samples, seed)
    return (ops, *rest, np.linspace(*_outer_range(ops[0], bins), bins + 1))


def _alone(job: tuple):
    """The result of one stream job, its batches shared by both lanes; a
    ``ValueError`` the job raised is raised here."""
    (result,) = _lanes([job])
    if isinstance(result, ValueError):
        raise result
    return result


def mc_moment(m: np.ndarray, order: int, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the Haar average of |<psi|m|psi>|^(2*order)."""
    (tally,) = _alone(_moment_job([m], (order,), samples, seed))
    return tally.estimate(seed)


def mc_sample(m: np.ndarray, bins: int, samples: int, seed: int) -> tuple[Histogram, McEstimate]:
    """Histogram of sampled fidelities f = |<psi|m|psi>|^2 and
    ``mc_moment(m, 1, ...)``, from one draw of the states.

    The histogram's range is an outer bound on f from the numerical range of
    ``m``, known before the first draw, so no sample is kept; its edges hold
    every f but may lie outside the law's support.
    """
    (tally,) = _alone(_sample_job(m, bins, samples, seed))
    return tally.histogram(seed), tally.estimate(seed)


def compare_histogram(d, h: Histogram) -> HistogramComparison:
    """Chi-square and density sup-norm of a sampled histogram vs the law ``d``.

    The law is read only through ``d.support()`` and ``d.cdf(f)``, as of a
    :class:`~gatefid.qubit_dist.FidelityDistribution`. Expected bin
    probabilities come from CDF differences; the chi-square runs over bins
    with expected count at least 5 (dof = that count minus one). The
    sup-norm compares empirical densities against the bin-averaged analytic
    density over all bins.
    """
    lo, hi = d.support()
    widths = h.widths
    slack = EDGE_SLACK * hi
    if h.edges[0] < lo - widths[0] - slack or h.edges[-1] > hi + widths[-1] + slack:
        raise ValueError("histogram extends beyond the support by more than one bin")
    probs = np.diff(d.cdf(h.edges))
    expected = probs * h.samples
    usable = expected >= MIN_EXPECTED_COUNT
    if not usable.any():
        raise ValueError(f"no histogram bin has expected count >= {MIN_EXPECTED_COUNT:g}")
    resid = h.counts[usable] - expected[usable]
    chi_square = float((resid**2 / expected[usable]).sum())
    gap = float(np.abs(h.densities - probs / widths).max())
    bins_compared = int(usable.sum())
    return HistogramComparison(
        sup_norm_density_gap=gap,
        chi_square=chi_square,
        dof=bins_compared - 1,
        bins_compared=bins_compared,
        max_pull=float((np.abs(resid) / np.sqrt(expected[usable])).max()),
    )
