import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gatefid.linalg import adjoint
from gatefid.sampling import _BATCH
from gatefid.verify import _quartic_exponents


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_matrix(rng, n, scale=1.0):
    """Random complex matrix with entries uniform in the scaled unit square."""
    return scale * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))


def random_unit_disc_matrix(rng, n):
    """Entries uniform in the complex unit disc."""
    out = np.empty((n, n), dtype=np.complex128)
    count = 0
    while count < n * n:
        z = rng.uniform(-1, 1, (2 * n * n, 2))
        vals = z[:, 0] + 1j * z[:, 1]
        vals = vals[np.abs(vals) <= 1.0]
        take = min(len(vals), n * n - count)
        out.flat[count : count + take] = vals[:take]
        count += take
    return out


def random_unitary(rng, n):
    """Haar unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, n):
    m = random_matrix(rng, n)
    return (m + adjoint(m)) / 2


def random_antihermitian(rng, n):
    m = random_matrix(rng, n)
    return (m - adjoint(m)) / 2


def fourth_by_eigenvalues(lam):
    """E (sum_i lam_i |c_i|^2)^4 over Haar states c: the fourth moment of
    <psi|h|psi> for a Hermitian h with eigenvalues lam."""
    n = len(lam)
    weight = 24 / math.prod(range(n, n + 4))  # of every row: see _quartic_exponents
    return float(np.prod(np.asarray(lam) ** _quartic_exponents(n), axis=1).sum()) * weight


def permutation_moment(m, order):
    """E |<psi|m|psi>|^(2 order) over Haar states, exactly, as a Fraction: the
    permutation sum  sum_{sigma in S_t} tr_sigma / (n (n+1) ... (n+t-1))  over
    t = 2 order tensor factors, m on the first ``order`` and m^dag on the
    rest, with tr_sigma the product over the cycles of sigma of the trace of
    the product of the cycle's factors. Every float is a binary fraction, so
    the entries of ``m`` are taken exactly; a matrix is a pair (re, im) of
    object arrays of Fractions."""
    m = np.asarray(m, dtype=np.complex128)
    n, t = len(m), 2 * order
    re = np.vectorize(Fraction, otypes=[object])(m.real)
    im = np.vectorize(Fraction, otypes=[object])(m.imag)
    factors = [(re, im)] * order + [(re.T, -im.T)] * order
    total = [Fraction(0), Fraction(0)]
    for sigma in itertools.permutations(range(t)):
        value, seen = (Fraction(1), Fraction(0)), set()
        for start in range(t):
            if start in seen:
                continue
            a, b, i = np.eye(n, dtype=object), np.zeros((n, n), dtype=object), start
            while i not in seen:
                seen.add(i)
                c, d = factors[i]
                a, b, i = a @ c - b @ d, a @ d + b @ c, sigma[i]
            x, y = a.trace(), b.trace()
            value = (value[0] * x - value[1] * y, value[0] * y + value[1] * x)
        total = [total[0] + value[0], total[1] + value[1]]
    assert total[1] == 0
    return total[0] / math.prod(range(n, n + t))


def reference_states(n, count, rng):
    """Rows (z_0 + i z_1, z_2 + i z_3, ...) / norm from one normal draw."""
    z = rng.standard_normal((count, 2 * n))
    v = z[:, 0::2] + 1j * z[:, 1::2]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def reference_overlap(states, a):
    """<psi|a|psi> for every row psi of ``states``, written out in numpy: the
    reference for the sampler's overlap kernel."""
    return np.einsum("bj,bj->b", states.conj() @ a, states)


def batch_rng(seed, k):
    """The generator of batch k of the sampler's stream of ``seed``, from
    numpy alone: SFC64 seeded by the k-th child of the seed's first
    SeedSequence child."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(1)[0].spawn(k + 1)[k]))


def reference_batches(n, count, seed):
    """The ``(v, r2)`` batches of the sampler's Gaussian stream (n != 2) of
    ``seed``, from numpy alone: batch k is one normal draw of
    ``batch_rng(seed, k)`` of up to ``_BATCH`` rows, whose consecutive pairs
    (re, im) make the rows v, with r2 = |v|^2 summed as the sampler sums
    it. The sampler's redraw of a row too short to normalize
    (norm^2 <= 1e-300) is left out."""
    for k, start in enumerate(range(0, count, _BATCH)):
        z = batch_rng(seed, k).standard_normal((min(_BATCH, count - start), 2 * n))
        yield z.view(np.complex128), np.einsum("ij,ij->i", z, z)


def reference_bloch_rows(rng, count):
    """``count`` Bloch vectors from ``rng`` by the sampler's rule, in numpy
    alone: while d rows are missing, draw m = d + d // 3 + 1 pairs (x, y)
    uniform in [-1, 1)^2, m uniforms for the x and then m for the y, and
    keep, in order, the first pairs with s = x^2 + y^2 < 1, up to d, as
    r = (2x sqrt(1 - s), 2y sqrt(1 - s), 1 - 2s) (Marsaglia 1972)."""
    parts, need = [], count
    while need:
        x, y = 2 * rng.random((2, need + need // 3 + 1)) - 1
        s = x * x + y * y
        keep = s < 1
        x, y, s = x[keep][:need], y[keep][:need], s[keep][:need]
        w = 2 * np.sqrt(1 - s)
        parts.append(np.stack([x * w, y * w, 1 - 2 * s], axis=1))
        need -= len(s)
    return np.concatenate(parts)


def reference_bloch_batches(count, seed):
    """The Bloch vectors of the sampler's qubit (n = 2) stream of ``seed``,
    from numpy alone: batch k is ``reference_bloch_rows`` of
    ``batch_rng(seed, k)``, up to ``_BATCH`` rows."""
    for k, start in enumerate(range(0, count, _BATCH)):
        yield reference_bloch_rows(batch_rng(seed, k), min(_BATCH, count - start))


def bloch_states(r):
    """The qubit state psi(r) = (cos(theta/2), e^{i phi} sin(theta/2)) whose
    Bloch vector is each row r, as
    (sqrt((1 + r_z) / 2), (r_x + i r_y) / sqrt(2 (1 + r_z)))."""
    x, y, z = np.asarray(r).T
    return np.stack([np.sqrt((1 + z) / 2), (x + 1j * y) / np.sqrt(2 * (1 + z))], axis=1)


def haar_states(n, count, seed):
    """``count`` Haar states on C^n, the states of the seed's stream: the
    normalized Gaussian rows, or for n = 2 the states of its Bloch vectors."""
    if n == 2:
        return bloch_states(np.concatenate(list(reference_bloch_batches(count, seed))))
    return np.concatenate(
        [v / np.sqrt(r2)[:, None] for v, r2 in reference_batches(n, count, seed)]
    )


def assert_scale_covariant(run, m, k, degree):
    """``run(2^k m)`` against ``run(m)``: the same integer arrays, and every
    float array exactly ``2^(degree k)`` times, bit for bit. A power-of-two
    scale is exact in binary floating point (Higham 2002, ch. 27), so a
    result homogeneous of ``degree`` in m must follow it wherever nothing
    under- or overflows."""
    for want, got in zip(run(m), run(m * 2.0**k), strict=True):
        want, got = np.asarray(want), np.asarray(got)
        if want.dtype.kind == "f":
            want = np.ldexp(want, degree * k)
        assert want.dtype == got.dtype and want.tobytes() == got.tobytes()
