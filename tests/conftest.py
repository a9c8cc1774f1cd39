import numpy as np
import pytest

from gatefid.linalg import adjoint
from gatefid.sampling import _BATCH
from gatefid.verify import _quartic_table


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
    ks, weights = _quartic_table(len(lam))
    return float(np.prod(np.asarray(lam) ** ks, axis=1) @ weights)


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
    """The ``(v, r2)`` batches of the sampler's stream of ``seed``, from numpy
    alone: batch k is one normal draw of ``batch_rng(seed, k)`` of up to
    ``_BATCH`` rows, whose consecutive pairs (re, im) make the rows v, with
    r2 = |v|^2 summed as the sampler sums it. The sampler's redraw of a row
    too short to normalize (norm^2 <= 1e-300) is left out."""
    for k, start in enumerate(range(0, count, _BATCH)):
        z = batch_rng(seed, k).standard_normal((min(_BATCH, count - start), 2 * n))
        yield z.view(np.complex128), np.einsum("ij,ij->i", z, z)


def haar_states(n, count, seed):
    """``count`` Haar states on C^n, the normalized rows of the seed's stream."""
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
